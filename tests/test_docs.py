"""Doc/code consistency gates for the documentation suite.

``docs/OPERATIONS.md`` documents the operational surface — environment
knobs, the metric key contract, the analysis rule table — inside
HTML-comment marker blocks. These tests parse those blocks and diff
them against the code, so the documentation cannot silently rot: adding
a knob, a counter key, or a rule without updating the doc fails tier-1
(and CI's docs job).
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import contract_keys

REPO = Path(__file__).resolve().parent.parent
OPERATIONS = REPO / "docs" / "OPERATIONS.md"

#: Source trees scanned for REPRO_* environment-knob references.
CODE_TREES = ["src", "benchmarks", "scripts", "examples"]

KNOB_RE = re.compile(r"REPRO_[A-Z0-9_]+")
#: Backticked counter keys: at least one slash, lowercase/underscore
#: segments (matches `ingest/records`, not `OnlineLabelModel.refit`).
COUNTER_KEY_RE = re.compile(r"`([a-z_]+(?:/[a-z_]+)+)`")


def marker_block(name: str) -> str:
    """The text between ``<!-- {name}-start -->`` and its end marker."""
    text = OPERATIONS.read_text(encoding="utf-8")
    match = re.search(
        rf"<!-- {name}-start -->(.*?)<!-- {name}-end -->", text, re.DOTALL
    )
    assert match, f"docs/OPERATIONS.md is missing the {name} marker block"
    return match.group(1)


def code_files():
    for tree in CODE_TREES:
        yield from sorted((REPO / tree).rglob("*.py"))


class TestEnvKnobs:
    def test_documented_knobs_match_code(self):
        """Every REPRO_* knob in code is documented, and every knob the
        docs list or a CI workflow sets is one the code still reads."""
        in_code = set()
        for path in code_files():
            in_code.update(KNOB_RE.findall(path.read_text(encoding="utf-8")))
        documented = set(KNOB_RE.findall(marker_block("env-knobs")))
        in_ci = set()
        for path in sorted((REPO / ".github" / "workflows").glob("*.yml")):
            in_ci.update(KNOB_RE.findall(path.read_text(encoding="utf-8")))
        assert documented == in_code and in_ci <= in_code, (
            f"docs/OPERATIONS.md env knobs out of sync: "
            f"undocumented={sorted(in_code - documented)}, "
            f"stale={sorted(documented - in_code)}, "
            f"set by CI but read nowhere={sorted(in_ci - in_code)}"
        )


#: Each docs/OPERATIONS.md contract marker block is one filter of the
#: single table in ``repro.obs.contract``.
CONTRACT_BLOCKS = {
    "counter-contract": lambda row: (
        row.kind == "counter" and row.layer == "stream"
    ),
    "serving-counter-contract": lambda row: (
        row.kind == "counter" and row.layer == "serving"
    ),
    "telemetry-histograms": lambda row: row.kind == "histogram",
    "telemetry-counters": lambda row: row.kind == "gauge"
    or (row.kind == "counter" and row.layer in ("offline", "parallel")),
}


class TestKeyContract:
    @pytest.mark.parametrize("block", sorted(CONTRACT_BLOCKS))
    def test_documented_keys_match_table(self, block):
        """Each documented table equals its filter of KEY_CONTRACT."""
        from repro.obs import KEY_CONTRACT

        documented = set(COUNTER_KEY_RE.findall(marker_block(block)))
        contract = {
            row.key for row in KEY_CONTRACT if CONTRACT_BLOCKS[block](row)
        }
        assert documented == contract, (
            f"docs/OPERATIONS.md {block} block out of sync: "
            f"undocumented={sorted(contract - documented)}, "
            f"stale={sorted(documented - contract)}"
        )

    def test_every_row_is_documented_exactly_once(self):
        """No key is pinned twice, and the four blocks partition the
        table — a new row cannot land outside every documented table."""
        from repro.obs import KEY_CONTRACT

        keys = [row.key for row in KEY_CONTRACT]
        assert len(keys) == len(set(keys))
        for row in KEY_CONTRACT:
            homes = [b for b, keep in CONTRACT_BLOCKS.items() if keep(row)]
            assert len(homes) == 1, (row, homes)

    def test_drift_keys_are_conditional_stream_counters(self):
        """The drift/* counter family is pinned as conditional keys."""
        conditional = contract_keys("counter", "stream", conditional=True)
        assert {key for key in conditional if key.startswith("drift/")} == {
            "drift/batches",
            "drift/checks",
            "drift/alarms",
            "drift/reference_resets",
        }

    def test_serving_keys_are_disjoint_from_streaming(self):
        """Serving keys live in their own family: no collisions with the
        streaming pipeline's keys."""
        serving = set(contract_keys(layer="serving"))
        assert not serving & set(contract_keys(layer="stream"))
        assert all(key.startswith("serving/") for key in serving)

    def test_histograms_cover_every_hot_layer(self):
        """Each instrumented layer owns at least one histogram, and
        stage events feed only counters and histograms."""
        from repro.obs import KEY_CONTRACT, STAGES

        layers = {row.layer for row in KEY_CONTRACT}
        assert layers == {"stream", "offline", "parallel", "serving"}
        assert {
            row.layer for row in KEY_CONTRACT if row.kind == "histogram"
        } == layers
        assert all(
            row.kind != "gauge" for rows in STAGES.values() for row in rows
        )


class TestAnalysisRules:
    #: One table row: | `rule-id` | description |
    RULE_ROW_RE = re.compile(r"^\| `([a-z-]+)` \| (.+?) \|$", re.MULTILINE)

    def test_documented_rules_match_registry(self):
        """The analysis rule table equals the live rule registry —
        ids AND descriptions, so neither can drift silently."""
        from repro.analysis import default_rules

        registry = {rule.id: rule.description for rule in default_rules()}
        documented = dict(
            self.RULE_ROW_RE.findall(marker_block("analysis-rules"))
        )
        assert documented == registry, (
            f"docs/OPERATIONS.md analysis rule table out of sync: "
            f"undocumented={sorted(set(registry) - set(documented))}, "
            f"stale={sorted(set(documented) - set(registry))}, "
            f"drifted={sorted(k for k in registry if k in documented and registry[k] != documented[k])}"
        )


class TestServeConfigTable:
    #: One table row: | `field` | `default` | effect |
    FIELD_ROW_RE = re.compile(r"^\| `([a-z_]+)` \| `([0-9.]+)` \|", re.MULTILINE)

    def test_configuration_table_matches_serve_config(self):
        """docs/SERVING.md tabulates exactly the fields of ServeConfig,
        in order, with their defaults."""
        import dataclasses

        from repro.serving import ServeConfig

        text = (REPO / "docs" / "SERVING.md").read_text(encoding="utf-8")
        section = text.split("## Configuration")[1].split("\n## ")[0]
        documented = [
            (name, float(default))
            for name, default in self.FIELD_ROW_RE.findall(section)
        ]
        assert documented == [
            (field.name, float(field.default))
            for field in dataclasses.fields(ServeConfig)
        ]


class TestMarkdownLinks:
    def test_intra_repo_links_resolve(self):
        """scripts/check_docs.py finds no broken markdown links."""
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, (
            f"broken documentation links:\n{result.stdout}{result.stderr}"
        )
