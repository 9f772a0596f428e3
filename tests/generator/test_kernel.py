"""Tests for specialized search-kernel generation (repro.generator.kernel).

Covers the emitted module's shape and the content-hash caches
(in-process, on-disk, ``force=``).
"""

from pathlib import Path

import pytest

from repro.errors import GenerationError
from repro.generator import (
    SearchKernel,
    clear_kernel_caches,
    compile_and_load,
    generate_kernel_source,
    kernel_for,
    resolve_kernel,
    source_fingerprint,
    spec_fingerprint,
)
from repro.models.relational import RelationalModelOptions, relational_model
from repro.options import KERNEL_TIERS

PROVIDER = "repro.models.relational:relational_model"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private kernel cache directory."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    clear_kernel_caches()
    yield
    clear_kernel_caches()


# ---------------------------------------------------------------------------
# Generated-source shape
# ---------------------------------------------------------------------------


def test_kernel_source_shape():
    source = generate_kernel_source(relational_model())
    compile(source, "<kernel>", "exec")
    assert "TRANSFORMATION_MATCHERS = (" in source
    assert "IMPLEMENTATION_MATCHERS = (" in source
    # One matcher per rule and nothing else: no delta enumerators.
    assert "old_len" not in source
    assert "_d(" not in source
    # The interpreter's pattern walk is gone: matchers loop directly.
    assert "expressions_of(" in source


def test_kernel_source_is_deterministic():
    assert generate_kernel_source(relational_model()) == generate_kernel_source(
        relational_model()
    )


def test_fingerprint_distinguishes_rule_sets():
    base = spec_fingerprint(relational_model())
    trimmed = spec_fingerprint(
        relational_model(RelationalModelOptions(enable_filter_scan=False))
    )
    assert base != trimmed


# ---------------------------------------------------------------------------
# kernel_for: tiers, caching, force
# ---------------------------------------------------------------------------


def test_interpreted_tier_is_no_kernel():
    assert kernel_for(relational_model(), "interpreted") is None


def test_unknown_tier_rejected():
    with pytest.raises(GenerationError):
        kernel_for(relational_model(), "jit")


def test_specialized_kernel_builds_and_caches(tmp_path):
    spec = relational_model()
    kernel = kernel_for(spec, "specialized")
    assert isinstance(kernel, SearchKernel)
    assert kernel.tier == "specialized"
    assert kernel.source_path is not None and kernel.source_path.exists()
    # Same fingerprint -> the module is reused, not regenerated.
    again = kernel_for(spec, "specialized")
    assert again.module is kernel.module
    # force=True rewrites the file but the content hash is unchanged.
    before = kernel.source_path.read_text()
    forced = kernel_for(spec, "specialized", force=True)
    assert forced.fingerprint == kernel.fingerprint
    assert forced.source_path.read_text() == before


def test_dispatch_tables_cover_every_rule():
    spec = relational_model()
    kernel = kernel_for(spec, "specialized")
    listed = [
        rule.name
        for pairs in kernel.transformation_dispatch.values()
        for rule, _ in pairs
    ]
    assert sorted(listed) == sorted(r.name for r in spec.transformations)
    for pairs in kernel.implementation_dispatch.values():
        for rule, matcher in pairs:
            assert callable(matcher)
            assert rule.top_operator in kernel.implementation_dispatch


def test_resolve_kernel_rejects_foreign_kernel():
    spec = relational_model()
    other = relational_model(RelationalModelOptions(enable_filter_scan=False))
    kernel = kernel_for(spec, "specialized")
    assert resolve_kernel(spec, kernel).fingerprint == kernel.fingerprint
    with pytest.raises(GenerationError):
        resolve_kernel(other, kernel)
    with pytest.raises(GenerationError):
        resolve_kernel(spec, 42)


# ---------------------------------------------------------------------------
# Drift refusal
# ---------------------------------------------------------------------------


def test_drifted_spec_refused():
    spec = relational_model()
    kernel_for(spec, "specialized")
    drifted = relational_model(RelationalModelOptions(enable_filter_scan=False))
    # A different rule set yields a different fingerprint, hence its own
    # kernel: binding must succeed, not silently reuse the wrong tables.
    other = kernel_for(drifted, "specialized")
    assert other.fingerprint != spec_fingerprint(spec)


# ---------------------------------------------------------------------------
# compile_and_load: tier + content-hash caching + force
# ---------------------------------------------------------------------------


def test_compile_and_load_fingerprint_cache(tmp_path):
    spec = relational_model()
    path = tmp_path / "gen.py"
    module = compile_and_load(spec, PROVIDER, path)
    assert module.GENERATED is True
    assert source_fingerprint(path.read_text())
    # Unchanged spec: the file is reused, not rewritten.
    mtime = path.stat().st_mtime_ns
    again = compile_and_load(spec, PROVIDER, path)
    assert again.GENERATED is False
    assert path.stat().st_mtime_ns == mtime
    # force=True regenerates unconditionally.
    forced = compile_and_load(spec, PROVIDER, path, force=True)
    assert forced.GENERATED is True


def test_compile_and_load_keyed_directory(tmp_path):
    spec = relational_model()
    module = compile_and_load(spec, PROVIDER, tmp_path)
    assert module.GENERATED is True
    fingerprint = source_fingerprint(Path(module.__file__).read_text())
    assert f"{spec.name}-{fingerprint}" in module.__file__
    assert compile_and_load(spec, PROVIDER, tmp_path).GENERATED is False


def test_compile_and_load_tier_bakes_kernel_default(tmp_path):
    from repro.algebra.predicates import eq
    from repro.models.relational import get, join

    from tests.helpers import make_catalog

    spec = relational_model()
    module = compile_and_load(
        spec, PROVIDER, tmp_path / "k.py", tier="specialized"
    )
    assert module.KERNEL_TIER == "specialized"
    optimizer = module.build_optimizer(
        make_catalog([("r", 1200), ("s", 2400)])
    )
    assert optimizer.options.kernel == "specialized"
    result = optimizer.optimize(join(get("r"), get("s"), eq("r.k", "s.k")))
    assert result.cost.total() > 0


def test_compile_and_load_rejects_bad_tier(tmp_path):
    with pytest.raises(GenerationError):
        compile_and_load(
            relational_model(), PROVIDER, tmp_path / "x.py", tier="jit"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_generator_cli_generates_then_caches(tmp_path, capsys):
    from repro.generator.__main__ import main

    out = tmp_path / "out"
    out.mkdir()
    assert main(["relational", "--tier", "specialized", "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert "optimizer module generated" in first
    assert "kernel" in first
    assert main(["relational", "--tier", "specialized", "--out", str(out)]) == 0
    assert "optimizer module cached" in capsys.readouterr().out


def test_generator_cli_requires_model_or_all(capsys):
    from repro.generator.__main__ import main

    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["relational", "--all"])


def test_kernel_tiers_constant():
    assert KERNEL_TIERS == ("interpreted", "specialized")
