import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intralab.bvlist import BvCandidate, BvStore, Provenance, build_bv_list
from intralab import harness
from intralab.cli import build_parser
from intralab.etimd import (
    TOOLS,
    CandidatePool,
    EncodeContext,
    ModeCandidate,
    compute_weights,
    derive_block_modes,
    encode_block,
    evaluate_candidates,
    fuse,
    measure_blocks,
    select_modes_etimd,
    select_modes_timd,
)
from intralab.grid import ReconBuffer, partition
from intralab.harness import RunConfig
from intralab.intra import ALL_MODES, ANGULAR_MODES, predict_mode
from intralab.synth import SCREEN_FIXTURES, noise_frame, tiled_glyph_frame
from intralab.errors import CausalityError
from intralab.tmp import BlockVector, extended_rect, template_cost_at, template_rects

from conftest import prefix_buffer
import oracles
from test_acceptance import _ang, _bv, _closed_weights, _dc, _oracle_etimd, _oracle_timd, _planar


def ang(mode, cost):
    return ModeCandidate(cost=cost, mode=mode)


def planar(cost):
    return ModeCandidate(cost=cost, mode=0)


def dc(cost):
    return ModeCandidate(cost=cost, mode=1)


def bv(i, cost, dx=-8, dy=0):
    return ModeCandidate(cost=cost, bv=BlockVector(dx, dy), list_index=i)


# --- weights ---


def test_weights_single_mode():
    assert compute_weights([123]) == [1.0]
    assert compute_weights([0]) == [1.0]


def test_weights_two_modes_closed_form():
    w = compute_weights([10, 30])
    assert abs(w[0] - 30 / 40) < 1e-12
    assert abs(w[1] - 10 / 40) < 1e-12


def test_weights_three_modes_closed_form():
    losses = [10, 20, 30]
    w = compute_weights(losses)
    total = 60
    for wi, li in zip(w, losses):
        assert abs(wi - (total - li) / (2 * total)) < 1e-12


def test_weights_all_zero_uniform():
    assert compute_weights([0, 0, 0]) == [1 / 3, 1 / 3, 1 / 3]


def test_weights_empty_rejected():
    with pytest.raises(ValueError):
        compute_weights([])


@settings(max_examples=60, deadline=None)
@given(
    losses=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
    scale=st.integers(1, 97),
)
def test_weights_properties(losses, scale):
    w = compute_weights(losses)
    assert abs(sum(w) - 1.0) < 1e-9
    assert all(x >= 0 for x in w)
    # cheaper template loss never gets a smaller share
    for (la, wa), (lb, wb) in zip(zip(losses, w), list(zip(losses, w))[1:]):
        if la <= lb:
            assert wa >= wb - 1e-12
    ws = compute_weights([l * scale for l in losses])
    assert all(abs(a - b) < 1e-12 for a, b in zip(w, ws))


# --- fusion ---


def test_fuse_rounds_half_up():
    a = np.array([[0]], dtype=np.int64)
    b = np.array([[1]], dtype=np.int64)
    assert fuse([a, b], [0.5, 0.5], 8)[0, 0] == 1
    assert fuse([a, b], [0.75, 0.25], 8)[0, 0] == 0


def test_fuse_single_mode_identity(rng):
    pred = rng.integers(0, 256, size=(4, 4)).astype(np.int64)
    np.testing.assert_array_equal(fuse([pred], [1.0], 8), pred)


def test_fuse_clips_to_bit_depth():
    hot = np.array([[300]], dtype=np.int64)
    assert fuse([hot], [1.0], 8)[0, 0] == 255
    assert fuse([hot], [1.0], 10)[0, 0] == 300


def test_fuse_validates_pairing():
    with pytest.raises(ValueError):
        fuse([np.zeros((2, 2))], [0.5, 0.5], 8)
    with pytest.raises(ValueError):
        fuse([], [], 8)


# --- baseline TIMD selection ---


def test_timd_picks_best_angular():
    pool = [ang(30, 10), ang(40, 25), planar(100), dc(100)]
    fs = select_modes_timd(pool)
    assert [c.label() for c in fs.modes] == ["ang:30"]


def test_timd_second_angular_two_x_boundary():
    below = select_modes_timd([ang(30, 10), ang(40, 19), planar(99), dc(99)])
    assert [c.mode for c in below.modes] == [30, 40]
    at = select_modes_timd([ang(30, 10), ang(40, 20), planar(99), dc(99)])
    assert [c.mode for c in at.modes] == [30]


def test_timd_extra_mode_two_x_boundary():
    below = select_modes_timd([ang(30, 10), ang(40, 50), planar(19), dc(21)])
    assert [c.label() for c in below.modes] == ["ang:30", "planar"]
    at = select_modes_timd([ang(30, 10), ang(40, 50), planar(20), dc(20)])
    assert [c.label() for c in at.modes] == ["ang:30"]


def test_timd_extra_prefers_cheaper_of_planar_dc():
    fs = select_modes_timd([ang(30, 10), dc(12), planar(15)])
    assert [c.label() for c in fs.modes] == ["ang:30", "dc"]


def test_timd_ignores_bv_candidates():
    fs = select_modes_timd([ang(30, 10), bv(0, 1)])
    assert [c.label() for c in fs.modes] == ["ang:30"]


def test_timd_needs_angulars():
    with pytest.raises(ValueError):
        select_modes_timd([planar(1), dc(2)])


# --- E-TIMD selection ---


def test_etimd_primary_can_be_bv():
    fs = select_modes_etimd([ang(30, 50), planar(60), dc(70), bv(0, 10)])
    assert fs.modes[0].label() == "bv:-8:0"


def test_etimd_secondary_1_5x_boundary():
    # 2 * 14 < 3 * 10 holds; 2 * 15 < 3 * 10 does not
    included = select_modes_etimd([bv(0, 10), ang(30, 14), planar(99), dc(99)])
    assert len(included.modes) == 3  # secondary plus the unconditional third
    excluded = select_modes_etimd([bv(0, 10), ang(30, 15), planar(99), dc(99)])
    assert [c.label() for c in excluded.modes] == ["bv:-8:0"]


def test_etimd_third_is_cheapest_unused_non_angular():
    fs = select_modes_etimd([bv(0, 10), ang(30, 14), planar(40), dc(35), bv(1, 30, dx=-16)])
    assert [c.label() for c in fs.modes] == ["bv:-8:0", "ang:30", "bv:-16:0"]
    fs2 = select_modes_etimd([bv(0, 10), ang(30, 14), planar(40), dc(35), bv(1, 36, dx=-16)])
    assert [c.label() for c in fs2.modes] == ["bv:-8:0", "ang:30", "dc"]


def test_etimd_third_added_even_when_expensive():
    fs = select_modes_etimd([ang(30, 10), ang(31, 11), planar(10_000), dc(20_000)])
    assert [c.label() for c in fs.modes] == ["ang:30", "ang:31", "planar"]


def test_etimd_no_third_without_secondary():
    fs = select_modes_etimd([ang(30, 10), ang(31, 99), planar(1000), dc(1000)])
    assert [c.label() for c in fs.modes] == ["ang:30"]
    assert fs.weights == [1.0]


def test_etimd_two_non_angular_selected():
    # primary planar, secondary bv, third dc
    fs = select_modes_etimd([planar(10), bv(0, 12), dc(30), ang(30, 50)])
    assert [c.label() for c in fs.modes] == ["planar", "bv:-8:0", "dc"]


def test_etimd_equal_cost_kind_ranking():
    fs = select_modes_etimd([dc(7), bv(0, 7), planar(7), ang(5, 7)])
    assert [c.label() for c in fs.modes] == ["ang:5", "planar", "dc"]


def test_etimd_angular_ties_by_mode_index():
    fs = select_modes_etimd([ang(9, 7), ang(5, 7), planar(99), dc(99)])
    assert fs.modes[0].mode == 5


def test_etimd_bv_ties_by_list_index():
    fs = select_modes_etimd([bv(1, 7, dx=-16), bv(0, 7), ang(30, 99), planar(99), dc(99)])
    assert fs.modes[0].list_index == 0
    assert fs.modes[1].list_index == 1


def test_etimd_empty_pool_rejected():
    with pytest.raises(ValueError):
        select_modes_etimd([])


def test_etimd_all_zero_costs():
    # the strict 1.5x gate excludes a zero-cost runner-up against a
    # zero-cost primary, so a perfect template keeps a single mode
    fs = select_modes_etimd([ang(2, 0), ang(3, 0), planar(0), dc(0)])
    assert [c.label() for c in fs.modes] == ["ang:2"]
    assert fs.weights == [1.0]


def test_etimd_zero_primary_blocks_nonzero_secondary():
    fs = select_modes_etimd([ang(2, 0), ang(3, 1), planar(9), dc(9)])
    assert [c.label() for c in fs.modes] == ["ang:2"]


# --- candidate evaluation ---


def test_evaluate_counts_and_bv_costs():
    samples = tiled_glyph_frame(64, 64, period=8, seed=9)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]  # (32, 16)
    bvs = [
        BvCandidate(BlockVector(-8, -8), Provenance.PRIMARY),
        BvCandidate(BlockVector(-16, -8), Provenance.AUTO_RELOCATED),
    ]
    cands = evaluate_candidates(buf, block, 4, "satd", bvs)
    assert len(cands) == 67 + 2
    kinds = {c.kind for c in cands}
    assert kinds == {"angular", "planar", "dc", "bv"}
    for c in cands:
        if c.kind == "bv":
            assert c.cost == template_cost_at(buf, block, c.bv, 4, "satd")
    # the periodic repeat matches the template exactly
    exact = [c for c in cands if c.kind == "bv" and c.bv == BlockVector(-8, -8)]
    assert exact[0].cost == 0


def test_batched_bv_gather_raises_on_uncommitted_strips():
    samples = noise_frame(32, 32, seed=15)
    buf, blocks = prefix_buffer(samples, 8, 10)
    block = blocks[10]  # (16, 16): committed up to y 16, and up to x 16 on its row
    good = BlockVector(-8, -8)
    # (8, -4) moves the left strip onto the block's own, uncommitted row;
    # (-14, 0) moves it partly out of the frame.
    for bad in (BlockVector(8, -4), BlockVector(-14, 0)):
        listed = [BvCandidate(good, Provenance.PRIMARY), BvCandidate(bad, Provenance.PRIMARY)]
        with pytest.raises(CausalityError):
            evaluate_candidates(buf, block, 4, "satd", listed)
        with pytest.raises(CausalityError):
            for bv in (good, bad):
                template_cost_at(buf, block, bv, 4, "satd")
    pool = evaluate_candidates(buf, block, 4, "satd", [BvCandidate(good, Provenance.PRIMARY)])
    assert pool.costs[-1] == template_cost_at(buf, block, good, 4, "satd")


def test_evaluate_notes_each_read_once_per_strip():
    samples = tiled_glyph_frame(64, 64, period=8, seed=9)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]  # (32, 16)
    bvs = [BlockVector(-8, -8), BlockVector(-16, -8)]
    reads = []
    buf.read_hook = lambda x, y, w, h: reads.append((x, y, w, h))
    evaluate_candidates(buf, block, 4, "satd", [BvCandidate(bv, Provenance.PRIMARY) for bv in bvs])
    strips = [r for r in template_rects(block, 4, 64, 64) if r is not None]
    for dx, dy in [(0, 0)] + bvs:
        for x, y, w, h in strips:
            assert reads.count((x + dx, y + dy, w, h)) == 1


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    size=st.tuples(st.integers(5, 40), st.integers(5, 40)),
    block_size=st.sampled_from([4, 8, 16]),
    t=st.integers(1, 8),
    metric=st.sampled_from(["satd", "sad"]),
    bit_depth=st.sampled_from([8, 10]),
)
def test_pool_mode_costs_match_full_block_predictions(data, size, block_size, t, metric, bit_depth):
    # Mode m costs its full-block prediction of the template-extended
    # block, cut to each template strip and costed there against the
    # committed samples under it, with oracle references.
    fw, fh = size
    blocks = partition(fw, fh, block_size)
    assume(len(blocks) > 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, 1 << bit_depth, size=(fh, fw))
    n = data.draw(st.integers(1, len(blocks) - 1))
    buf, _ = prefix_buffer(samples, block_size, n, bit_depth)
    block = blocks[n]

    pool = evaluate_candidates(buf, block, t, metric)
    ex, ey, we, he = extended_rect(block, t)
    line = oracles.build_reference_samples(buf, ex, ey, we, he)
    strips = [r for r in template_rects(block, t, fw, fh) if r is not None]
    for m in ALL_MODES:
        pred = predict_mode(line, m, we, he)
        want = sum(
            int(oracles.block_cost(pred[y - ey : y - ey + h, x - ex : x - ex + w], samples[y : y + h, x : x + w], metric))
            for x, y, w, h in strips
        )
        assert pool.costs[m] == want, f"mode {m}"


def test_evaluate_requires_template():
    buf = ReconBuffer(32, 32, 8)
    block = partition(32, 32, 8)[0]
    with pytest.raises(ValueError):
        evaluate_candidates(buf, block, 4, "satd")


def test_evaluate_vertical_content_favors_vertical_mode():
    samples = np.tile(np.arange(64, dtype=np.uint16) * 3 % 251, (64, 1))
    buf, blocks = prefix_buffer(samples, 8, 20)
    cands = evaluate_candidates(buf, blocks[20], 4, "satd")
    best = min((c for c in cands if c.kind == "angular"), key=lambda c: (c.cost, c.mode))
    assert best.mode == 50
    assert best.cost == 0


# --- tool derivation and block encoding ---


def _ctx(samples, config, n_committed_blocks):
    buf, blocks = prefix_buffer(samples, config.block_size, n_committed_blocks)
    ctx = EncodeContext(
        original=np.asarray(samples, dtype=np.int64),
        buf=buf,
        store=BvStore(buf.width, buf.height),
        config=config,
    )
    return ctx, blocks


def _cfg(**kw):
    kw.setdefault("input_path", "unused")
    kw.setdefault("width", 64)
    kw.setdefault("height", 64)
    kw.setdefault("block_size", 8)
    return RunConfig(**kw)


def test_derive_dc_for_first_block():
    ctx, blocks = _ctx(noise_frame(64, 64, seed=20), _cfg(tool="etimd"), 0)
    tool, fusion, bv_list = derive_block_modes(ctx, blocks[0])
    assert tool == "dc" and fusion.weights == [1.0] and bv_list == []


def test_derive_dc_only_tool():
    ctx, blocks = _ctx(noise_frame(64, 64, seed=21), _cfg(tool="dc-only"), 12)
    tool, fusion, _ = derive_block_modes(ctx, blocks[12])
    assert tool == "dc"
    assert fusion.modes[0].label() == "dc"


def test_derive_intratmp_finds_match():
    ctx, blocks = _ctx(tiled_glyph_frame(64, 64, period=8, seed=22), _cfg(tool="intratmp"), 12)
    tool, fusion, _ = derive_block_modes(ctx, blocks[12])
    assert tool == "intratmp"
    assert len(fusion.modes) == 1 and fusion.modes[0].kind == "bv" and fusion.modes[0].cost == 0
    assert fusion.weights == [1.0]


def test_derive_intratmp_falls_back_to_dc():
    ctx, blocks = _ctx(noise_frame(64, 64, seed=23), _cfg(tool="intratmp", search_range=4), 1)
    tool, fusion, _ = derive_block_modes(ctx, blocks[1])  # (8, 0)
    assert tool == "dc" and fusion.modes[0].kind == "dc"


def test_derive_timd_all_template_modes():
    ctx, blocks = _ctx(noise_frame(64, 64, seed=24), _cfg(tool="timd"), 12)
    tool, fusion, bv_list = derive_block_modes(ctx, blocks[12])
    assert tool == "timd" and bv_list == []
    assert all(c.kind in ("angular", "planar", "dc") for c in fusion.modes)


def test_derive_etimd_compete_switches_on_cheaper_search():
    samples = tiled_glyph_frame(64, 64, period=8, seed=25)
    ctx, blocks = _ctx(samples, _cfg(tool="etimd", tmp_compete=True), 12)
    tool, fusion, _ = derive_block_modes(ctx, blocks[12])
    # angular fusion cannot reach cost 0 on glyph noise, the search can
    assert tool == "intratmp"
    assert len(fusion.modes) == 1 and fusion.modes[0].kind == "bv" and fusion.modes[0].cost == 0


def test_derive_etimd_compete_needs_strict_improvement():
    flat = np.full((64, 64), 200, dtype=np.uint16)
    ctx, blocks = _ctx(flat, _cfg(tool="etimd", tmp_compete=True), 12)
    tool, fusion, _ = derive_block_modes(ctx, blocks[12])
    assert tool == "etimd"  # fusion already at cost 0, search cannot beat it
    assert fusion.modes[0].cost == 0


def test_derive_etimd_without_compete_keeps_fusion():
    samples = tiled_glyph_frame(64, 64, period=8, seed=26)
    ctx, blocks = _ctx(samples, _cfg(tool="etimd", tmp_compete=False), 12)
    tool, _, _ = derive_block_modes(ctx, blocks[12])
    assert tool == "etimd"


def test_derive_unknown_tool():
    class Odd:
        tool = "hevc"
        template = 4

    samples = noise_frame(64, 64, seed=27)
    buf, blocks = prefix_buffer(samples, 8, 12)
    ctx = EncodeContext(samples.astype(np.int64), buf, BvStore(64, 64), Odd())
    with pytest.raises(ValueError):
        derive_block_modes(ctx, blocks[12])


def test_encode_block_commits_and_records():
    samples = tiled_glyph_frame(64, 64, period=8, seed=28)
    cfg = _cfg(tool="etimd")
    ctx, blocks = _ctx(samples, cfg, 0)
    results = [encode_block(ctx, b) for b in blocks]
    assert ctx.buf.n_committed == len(blocks)
    # open loop commits the original samples
    np.testing.assert_array_equal(ctx.buf.samples, samples.astype(np.int32))
    for res in results:
        stored = ctx.store.bvs_at(res.block.x0, res.block.y0)
        assert stored == tuple(c.bv for c in res.fusion.modes if c.kind == "bv")
        if res.tool == "intratmp":
            assert len(stored) == 1
        elif res.tool != "etimd":
            assert stored == ()
    assert any(res.tool == "intratmp" for res in results)


def test_one_tool_table_feeds_config_cli_and_records():
    assert harness.TOOLS is TOOLS
    for tool in TOOLS:
        assert build_parser().parse_args(["run", "--tool", tool]).tool == tool
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--tool", "dc"])  # a block label, not a tool
    samples = tiled_glyph_frame(64, 64, period=8, seed=28)
    labels = set()
    for tool in TOOLS:
        ctx, blocks = _ctx(samples, _cfg(tool=tool, search_range=16), 0)
        for b in blocks:
            labels.add(encode_block(ctx, b).tool)
    assert labels == {"dc", "timd", "etimd", "intratmp"}


def test_encode_block_stats_consistent(rng):
    samples = noise_frame(64, 64, seed=29)
    cfg = _cfg(tool="timd")
    ctx, blocks = _ctx(samples, cfg, 0)
    for b in blocks[:9]:
        res = measure_blocks(ctx, [encode_block(ctx, b)])[0]
        orig = samples[b.y0 : b.y0 + b.h, b.x0 : b.x0 + b.w].astype(np.int64)
        assert res.pred_sad == int(np.abs(res.prediction - orig).sum())
        assert res.pred_sse == int(((res.prediction - orig) ** 2).sum())
        assert res.bv_list_len == res.n_primary + res.n_ar == 0


def test_encode_block_measures_transform():
    samples = tiled_glyph_frame(64, 64, period=8, seed=30)
    cfg = _cfg(tool="etimd", use_hog_transform=True)
    ctx, blocks = _ctx(samples, cfg, 0)
    results = measure_blocks(ctx, [encode_block(ctx, b) for b in blocks[:12]])
    for res in results:
        assert res.transform_modes is not None
        assert res.transform_class_name in ("DC0", "H", "D", "V")
        assert res.compaction is None or 0.0 <= res.compaction <= 1.0


# --- array ranking against criterion 3's brute-force oracles ---

_SELECTORS = ((select_modes_etimd, _oracle_etimd), (select_modes_timd, _oracle_timd))


def _assert_matches_oracle(got, want):
    assert [(m.label(), m.cost) for m in got.modes] == [(m.label(), m.cost) for m in want]
    want_w = _closed_weights([c.cost for c in want])
    assert all(abs(a - b) <= 1e-12 for a, b in zip(got.weights, want_w))
    assert len(got.weights) == len(want_w)


@settings(max_examples=300, deadline=None)
@given(
    angular=st.dictionaries(st.sampled_from(ANGULAR_MODES), st.integers(0, 3), min_size=1),
    planar_cost=st.one_of(st.none(), st.integers(0, 3)),
    dc_cost=st.one_of(st.none(), st.integers(0, 3)),
    bv_costs=st.lists(st.integers(0, 3), max_size=20),
    shuffle=st.randoms(use_true_random=False),
)
def test_ranking_ties_match_brute_force(angular, planar_cost, dc_cost, bv_costs, shuffle):
    cands = [_ang(mode, cost) for mode, cost in angular.items()]
    if planar_cost is not None:
        cands.append(_planar(planar_cost))
    if dc_cost is not None:
        cands.append(_dc(dc_cost))
    cands += [_bv(i, cost) for i, cost in enumerate(bv_costs)]
    shuffle.shuffle(cands)
    for select, oracle in _SELECTORS:
        _assert_matches_oracle(select(cands), oracle(cands))


@settings(max_examples=200, deadline=None)
@given(
    mode_costs=st.lists(st.integers(0, 3), min_size=len(ALL_MODES), max_size=len(ALL_MODES)),
    bv_costs=st.lists(st.integers(0, 3), max_size=20),
)
def test_pool_ranking_ties_match_brute_force(mode_costs, bv_costs):
    bv_list = [BvCandidate(_bv(i, 0).bv, Provenance.PRIMARY) for i in range(len(bv_costs))]
    pool = CandidatePool(np.array(mode_costs + bv_costs), bv_list)
    cands = list(pool)
    assert len(pool) == len(cands) == len(ALL_MODES) + len(bv_costs)
    for select, oracle in _SELECTORS:
        _assert_matches_oracle(select(pool), oracle(cands))


def test_pool_is_read_only_and_indexes_like_a_list():
    bv_list = [BvCandidate(BlockVector(-8, 0), Provenance.PRIMARY)]
    pool = CandidatePool(np.arange(len(ALL_MODES) + 1), bv_list)
    with pytest.raises(ValueError):
        pool.costs[0] = 5
    assert pool[-1] == ModeCandidate(cost=len(ALL_MODES), bv=BlockVector(-8, 0), list_index=0)
    assert pool[0] == planar(0) and pool[1] == dc(1) and pool[30] == ang(30, 30)
    with pytest.raises(IndexError):
        pool[len(pool)]
    with pytest.raises(ValueError):
        CandidatePool(np.zeros(len(ALL_MODES)), bv_list)


@pytest.mark.parametrize("fixture", sorted(SCREEN_FIXTURES))
def test_select_on_pool_equals_select_on_list(fixture):
    samples = SCREEN_FIXTURES[fixture](7, 64)
    cfg = _cfg(tool="etimd", block_size=8, tmp_compete=True)
    ctx, blocks = _ctx(samples, cfg, 0)
    compared = 0
    for block in blocks:
        if any(template_rects(block, cfg.template, 64, 64)):
            bv_list = build_bv_list(ctx.store, ctx.buf, block, cfg.template, cfg.n_max, use_ar=True)
            pool = evaluate_candidates(ctx.buf, block, cfg.template, cfg.metric, bv_list)
            for select in (select_modes_etimd, select_modes_timd):
                assert select(pool) == select(list(pool))
            compared += 1
        encode_block(ctx, block)
    assert compared == len(blocks) - 1
