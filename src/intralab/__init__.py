"""Luma intra-prediction laboratory.

Template-derived intra mode fusion (TIMD and its BV-enhanced variant),
intra template matching, spatial/auto-relocated block-vector lists,
gradient-histogram transform selection, and an A/B experiment harness,
all runnable on raw frames.

The package root exports nothing: import the module you need, such as
intralab.harness, so that importing one module loads only what it uses.
"""
