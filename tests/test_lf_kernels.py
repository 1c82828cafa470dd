"""LF kernels read an ``Example`` and leave nothing on it.

The batched kernels tokenize into locals that die with the probe: no
attribute is set on the example, nothing GC-tracked outlives a block,
and the awkward inputs (a multi-word surface across a field boundary,
non-string and missing field values, one example labelled by two plans)
vote exactly as the per-example ``label`` does.
"""

import copy
import gc

import numpy as np
import pytest

from repro.applications.product import build_product_lfs
from repro.datasets.content import build_content_world
from repro.experiments.harness import get_content_experiment
from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.templates import keyword_lf, topic_model_lf
from repro.types import Example

from tests.test_batch_equivalence import URLS, WORDS, build_suite, make_topic_model


def word_examples(n):
    """``n`` new examples over the equivalence suite's awkward words."""
    return [
        Example(
            f"w{i}",
            fields={
                "title": " ".join(WORDS[(i + k) % len(WORDS)] for k in range(3)),
                "body": " ".join(WORDS[(3 * i + k) % len(WORDS)] for k in range(9)),
                "url": URLS[i % len(URLS)],
                "source_id": ["", "src1", "src2"][i % 3],
            },
            servable={"score_s": (i % 7) / 5},
            non_servable={"score": (i % 5) / 4},
        )
        for i in range(n)
    ]


def product_block():
    """The product suite and 2,000 never-labelled copies of its pool."""
    exp = get_content_experiment("product", "tiny")
    lfs = build_product_lfs(build_content_world(exp.seed))[0]
    return lfs, [Example.from_record(e.to_record()) for e in exp.dataset.unlabeled]


def per_example(lfs, examples):
    return np.array(
        [[lf.label(example) for lf in lfs] for example in examples], np.int8
    )


# ----------------------------------------------------------------------
# labelling leaves the Example as it was
# ----------------------------------------------------------------------
def test_label_example_block_leaves_examples_as_they_were():
    lfs, examples = build_suite(), word_examples(60)
    before = [copy.deepcopy(vars(e)) for e in examples]
    start_lf_resources(lfs)
    try:
        label_example_block(lfs, examples, fused_lf_columns(lfs))
    finally:
        stop_lf_resources(lfs)
    assert [vars(e) for e in examples] == before


def test_every_template_label_batch_leaves_examples_as_they_were():
    examples = word_examples(60)
    before = [copy.deepcopy(vars(e)) for e in examples]
    for lf in build_suite():
        lf.start_resources()
        try:
            lf.label_batch(examples)
        finally:
            lf.stop_resources()
        assert [vars(e) for e in examples] == before, lf.name


# ----------------------------------------------------------------------
# nothing survives per example
# ----------------------------------------------------------------------
@pytest.mark.parametrize("suite", ["product", "templates"])
def test_a_labelled_block_leaves_no_tracked_objects(suite):
    """2,000 examples labelled with the collector off: what the block
    leaves behind once its votes are dropped is a constant, not a
    per-example cost."""
    if suite == "product":
        lfs, examples = product_block()
    else:
        lfs, examples = build_suite(), word_examples(2000)
    assert len(examples) == 2000
    start_lf_resources(lfs)
    was_enabled = gc.isenabled()
    try:
        plan = fused_lf_columns(lfs)
        # Compile the plan and resolve every lazy per-run cache first.
        label_example_block(lfs, word_examples(4), plan)
        gc.collect()
        gc.disable()
        before = len(gc.get_objects())
        label_example_block(lfs, examples, plan)
        grown = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
        stop_lf_resources(lfs)
    assert grown < 64, f"{grown} tracked objects left by 2,000 examples"


# ----------------------------------------------------------------------
# edge cases against the per-example oracle
# ----------------------------------------------------------------------
def test_surface_across_the_field_boundary_in_shared_field_groups():
    """Groups ``("body", "title")`` and ``("title",)`` share the title
    field in a different order: each group's stream is its own fields'
    concatenation, so a phrase split across the boundary matches exactly
    where the joined scalar text does."""
    lfs = [
        keyword_lf("span_bt", ["mountain bike"], 1, fields=("body", "title")),
        keyword_lf("span_tb", ["mountain bike"], -1, fields=("title", "body")),
        keyword_lf("title_only", ["bike", "mountain bike"], 1, fields=("title",)),
        keyword_lf("hits_bt", ["mountain", "bike", "bike"], 1,
                   fields=("body", "title"), min_hits=3),
    ]
    examples = [
        Example("a", fields={"title": "bike sale", "body": "the mountain"}),
        Example("b", fields={"title": "the mountain", "body": "bike sale"}),
        Example("c", fields={"title": "mountain bike", "body": ""}),
        Example("d", fields={"title": "", "body": "mountain bike"}),
        Example("e", fields={"title": "mountain", "body": "bike"}),
    ]
    expected = per_example(lfs, examples)
    # The boundary cases really do cross it, each in its own group.
    assert expected[0].tolist() == [1, 0, 1, 1]
    assert expected[1].tolist() == [0, -1, 0, 1]
    plan = fused_lf_columns(lfs)
    assert len(plan) == len(lfs)
    assert np.array_equal(label_example_block(lfs, examples, plan), expected)
    for j, lf in enumerate(lfs):
        assert np.array_equal(lf.label_batch(examples), expected[:, j]), lf.name


def test_int_none_and_missing_field_values():
    lfs = [
        keyword_lf("kw_none", ["none", "7"], 1),
        keyword_lf("kw_title_int", ["42"], -1, fields=("title",)),
        keyword_lf("kw_hits", ["none", "42", "bike"], 1, min_hits=2),
        topic_model_lf("topic", make_topic_model(), ["finance"], -1),
    ]
    examples = [
        Example("int", fields={"title": 42, "body": 7}),
        Example("none", fields={"title": None, "body": "bike"}),
        Example("missing_body", fields={"title": "mortgage 42"}),
        Example("missing_all"),
        Example("mixed", fields={"title": None, "body": 42}),
    ]
    start_lf_resources(lfs)
    try:
        expected = per_example(lfs, examples)
        fused = label_example_block(lfs, examples, fused_lf_columns(lfs))
        batched = np.column_stack([lf.label_batch(examples) for lf in lfs])
    finally:
        stop_lf_resources(lfs)
    assert expected[:, 0].tolist() == [1, 1, 0, 0, 1]
    assert np.array_equal(fused, expected)
    assert np.array_equal(batched, expected)


def test_one_example_labelled_twice_by_two_plans():
    lfs, examples = build_suite(), word_examples(40)
    start_lf_resources(lfs)
    try:
        expected = per_example(lfs, examples)
        first = label_example_block(lfs, examples, fused_lf_columns(lfs))
        second = label_example_block(lfs, examples, fused_lf_columns(lfs))
    finally:
        stop_lf_resources(lfs)
    assert np.array_equal(first, expected)
    assert np.array_equal(second, expected)
