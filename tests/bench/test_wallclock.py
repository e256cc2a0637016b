"""Schema and validator of the wall-clock suites' documents."""

import json
from pathlib import Path

import pytest

from repro.bench.wallclock import (
    SCHEMA,
    build_document,
    main,
    validate_document,
    write_document,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def entry(name="rmat_generate", graph="g", size="1k", wall=0.5, **extra):
    out = {
        "name": name,
        "graph": graph,
        "size": size,
        "n": 10,
        "m": 20,
        "repeats": 3,
        "wall_s": wall,
        "edges_per_s": 40.0,
    }
    out.update(extra)
    return out


def test_valid_document_passes():
    doc = build_document("scale", "scale-tiny", [entry()])
    assert validate_document(doc) == []


def test_schema_and_kind_checked():
    doc = build_document("scale", "scale-tiny", [entry()])
    doc["schema"] = "bogus/v0"
    doc["kind"] = "macro"
    problems = validate_document(doc)
    assert any(SCHEMA in p for p in problems)
    assert any("kind" in p for p in problems)


@pytest.mark.parametrize("kind", ["kernels", "e2e", "serve"])
def test_removed_kinds_rejected(kind):
    """The kernels/e2e/serve suites are gone; their documents no longer
    validate (perfbench measures detection and serving host time)."""
    problems = validate_document(build_document(kind, "smoke", [entry()]))
    assert any("kind" in p for p in problems)


def test_missing_entry_keys_reported():
    bad = entry()
    del bad["wall_s"]
    problems = validate_document(build_document("scale", "scale-tiny", [bad]))
    assert any("wall_s" in p for p in problems)


def test_empty_benchmarks_invalid():
    doc = build_document("scale", "scale-tiny", [])
    assert validate_document(doc)


def test_negative_wall_invalid():
    doc = build_document("scale", "scale-tiny", [entry(wall=-1.0)])
    assert any("non-negative" in p for p in validate_document(doc))


def test_scale_kind_valid():
    e = entry(name="rmat_generate", edges_per_s=1e6, peak_rss_mb=12.0)
    assert validate_document(build_document("scale", "scale-tiny", [e])) == []


@pytest.mark.parametrize(
    "kind,name,key,value",
    [
        ("scale", "rmat_generate", "edges_per_s", -1.0),
        ("scale", "plp_detect", "communities", 0),
        ("scale", "plp_sharded_ab", "labels_match", "yes"),
        ("scale", "plp_sharded_ab", "shards", True),
        ("stream", "dplp_stream", "p99_ms", None),
        ("stream", "freeze_delta_ab", "identical", 1),
        ("stream", "freeze_delta_ab", "dirty_fraction", 1.5),
        ("stream", "dplm_incremental_ab", "nmi_min", -0.1),
        ("quality", "plp_quality", "communities", 2.5),
        ("quality", "plp_quality", "ari", 2.0),
    ],
)
def test_typed_fields_checked_per_entry_name(kind, name, key, value):
    """Every field listed for an entry's name (for quality entries, its
    kind) is required and typed: corrupting one in a committed document
    is reported under that key."""
    doc = json.loads((REPO_ROOT / f"BENCH_{kind}.json").read_text())
    i, bad = next(
        (i, e) for i, e in enumerate(doc["benchmarks"]) if e["name"] == name
    )
    bad[key] = value
    problems = validate_document(doc)
    assert any(p.startswith(f"benchmarks[{i}].{key} must be") for p in problems)


@pytest.mark.parametrize(
    "path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_committed_document_validates(path):
    doc = json.loads(path.read_text())
    assert validate_document(doc) == []


def test_scale_suite_tiny_end_to_end(tmp_path, capsys):
    out = tmp_path / "BENCH_scale.json"
    assert main(["scale", "--preset", "scale-tiny", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert validate_document(doc) == []
    names = {e["name"] for e in doc["benchmarks"]}
    assert {"rmat_generate", "pp_generate", "plp_detect"} <= names
    gen = next(e for e in doc["benchmarks"] if e["name"] == "rmat_generate")
    assert gen["edges_per_s"] > 0
    # The CI floor flag: an absurd floor must fail the run.
    assert (
        main(
            [
                "scale",
                "--preset",
                "scale-tiny",
                "--out",
                str(out),
                "--min-gen-eps",
                "1e15",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_scale_unknown_preset_rejected():
    from repro.bench.wallclock import run_scale_suite

    with pytest.raises(ValueError, match="unknown scale preset"):
        run_scale_suite("huge")


def test_cli_validate_roundtrip(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_document(build_document("scale", "scale-tiny", [entry()]), str(good))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "INVALID" in out


class TestKernelBackendFields:
    """The host block records which kernel backends the run could use."""

    def test_host_info_reports_kernel_backends(self):
        doc = build_document("scale", "scale-tiny", [entry()])
        kb = doc["host"]["kernel_backends"]
        assert kb["numpy"]["available"] is True
        assert "numba" in kb
