import hashlib

import numpy as np
import pytest

from intralab.synth import SCREEN_FIXTURES

# SHA-1 of each fixture's samples, with seed i for the i-th name in sorted order.
PINNED = {
    32: {
        "icon-checker": "5b2d7981839535cc58f4637f9a086b35fc855df9",
        "mixed-page": "448b51a314e1956966c2c3c6640acc3368a0d361",
        "terminal-rows": "f90345c9242542fbf9ec26143c0a7101fa1b5085",
        "text-columns": "c27ef02d265a88af7f12ae02c9f43e64155bc680",
        "ui-tiles": "f3f439a9cce5ec5a4d75ad9de2d59162d4cf2088",
    },
    64: {
        "icon-checker": "33000f9029984908c889391aa2823375f9f01962",
        "mixed-page": "50266280e48540faad4721af1f443aea3683847a",
        "terminal-rows": "246f50b095898588eee78d2154b58b5c25e0c5b1",
        "text-columns": "258866f4183ea9c53e88a97dfd33706b5f4f2a51",
        "ui-tiles": "0cb9bfb2b20bf9c6ad3129c3542dbfaef134ac2a",
    },
}


@pytest.mark.parametrize("size", sorted(PINNED))
def test_screen_fixtures_are_pinned(size):
    for i, (name, builder) in enumerate(sorted(SCREEN_FIXTURES.items())):
        samples = builder(seed=i, size=size)
        assert samples.dtype == np.uint16
        assert hashlib.sha1(samples.tobytes()).hexdigest() == PINNED[size][name], name


@pytest.mark.parametrize("name", sorted(SCREEN_FIXTURES))
def test_screen_fixtures_are_size_by_size_at_any_size(name):
    builder = SCREEN_FIXTURES[name]
    large = builder(seed=4, size=72)
    for size in range(1, 71):
        samples = builder(seed=4, size=size)
        assert samples.shape == (size, size)
        if name != "mixed-page":  # its text/terminal split moves with the size
            np.testing.assert_array_equal(samples, large[:size, :size])
