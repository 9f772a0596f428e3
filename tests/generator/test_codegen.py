"""Tests for optimizer source-code generation (paper Figure 1)."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.errors import GenerationError
from repro.generator import compile_and_load, generate_optimizer, generate_source
from repro.generator.codegen import render_pattern_code
from repro.model.patterns import AnyPattern, OpPattern
from repro.models.relational import get, join, relational_model, select

from tests.helpers import chain_query, make_catalog

PROVIDER = "repro.models.relational:relational_model"


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])


def test_render_pattern_code_roundtrips():
    pattern = OpPattern(
        "join",
        (OpPattern("join", (AnyPattern("a"), AnyPattern("b")), args_as="p1"),
         AnyPattern("c")),
        args_as="p2",
    )
    code = render_pattern_code(pattern)
    value = eval(code)
    assert value[0] == "join"
    assert value[1] == "p2"
    assert value[2][0][0] == "join"
    assert value[2][1] == ("?", "c")


def test_generated_source_structure():
    source = generate_source(relational_model(), PROVIDER)
    assert "MODEL_NAME = 'relational'" in source
    assert "OPERATORS = {" in source
    assert "'join':" in source
    assert "TRANSFORMATIONS = {" in source
    assert "'join_associate':" in source
    assert "def build_optimizer(" in source
    # Integer codes: every operator appears with a distinct code.
    assert "'get': (0" in source


def test_generated_source_is_valid_python():
    source = generate_source(relational_model(), PROVIDER)
    compile(source, "<generated>", "exec")


def test_generated_source_is_deterministic():
    first = generate_source(relational_model(), PROVIDER)
    second = generate_source(relational_model(), PROVIDER)
    assert first == second


def test_bad_provider_rejected():
    with pytest.raises(GenerationError):
        generate_source(relational_model(), "no-colon-here")
    with pytest.raises(GenerationError):
        generate_source(relational_model(), "module:")


def test_compile_and_load_builds_working_optimizer(tmp_path, catalog):
    module = compile_and_load(
        relational_model(), PROVIDER, tmp_path / "generated_relational.py"
    )
    optimizer = module.build_optimizer(catalog)
    result = optimizer.optimize(join(get("r"), get("s"), eq("r.k", "s.k")))
    assert result.plan.algorithm in ("hybrid_hash_join", "merge_join")


def test_generated_optimizer_matches_direct_construction(tmp_path, catalog):
    """Figure 1's pipeline and direct linking agree plan for plan."""
    module = compile_and_load(
        relational_model(), PROVIDER, tmp_path / "generated_relational.py"
    )
    generated = module.build_optimizer(catalog)
    direct = generate_optimizer(relational_model(), catalog)
    for query, required in [
        (chain_query(["r", "s", "t"]), None),
        (chain_query(["r", "s", "t"]), sorted_on("r.k")),
        (select(get("r"), eq("r.v", 3)), None),
    ]:
        from_generated = generated.optimize(query, props=required)
        from_direct = direct.optimize(query, props=required)
        assert from_generated.cost == from_direct.cost
        assert from_generated.plan.to_sexpr() == from_direct.plan.to_sexpr()


def test_drifted_provider_refused(tmp_path, catalog):
    """Changing the model without re-generating must fail at link time."""
    source = generate_source(relational_model(), PROVIDER)
    # Simulate drift: the generated tables claim an operator that the
    # provider no longer declares.
    drifted = source.replace("MODEL_NAME = 'relational'", "MODEL_NAME = 'other'")
    path = tmp_path / "drifted.py"
    path.write_text(drifted)
    import importlib.util

    spec = importlib.util.spec_from_file_location("drifted_optimizer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(GenerationError):
        module.build_optimizer(catalog)


def test_drifted_pattern_refused(tmp_path, catalog):
    source = generate_source(relational_model(), PROVIDER)
    drifted = source.replace(
        "'join_commute': (", "'join_commute_renamed': (", 1
    )
    path = tmp_path / "drifted2.py"
    path.write_text(drifted)
    import importlib.util

    spec = importlib.util.spec_from_file_location("drifted_optimizer2", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(GenerationError):
        module.build_optimizer(catalog)


def test_drifted_masks_refused(tmp_path, catalog):
    """A rule whose masks changed since generation must not link."""
    source = generate_source(relational_model(), PROVIDER)
    frozen = "('join_commute',), ('join_associate',)),"
    assert frozen in source
    drifted = source.replace(frozen, "('join_commute',), ()),", 1)
    path = tmp_path / "drifted3.py"
    path.write_text(drifted)
    import importlib.util

    spec = importlib.util.spec_from_file_location("drifted_optimizer3", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(GenerationError, match="masks of rule 'join_commute' changed"):
        module.build_optimizer(catalog)


def test_provider_args_are_embedded(tmp_path, catalog):
    from repro.models.relational import RelationalModelOptions

    spec = relational_model(RelationalModelOptions(enable_filter_scan=False))
    module = compile_and_load(
        spec,
        PROVIDER,
        tmp_path / "generated_nofs.py",
        provider_args=(
            "__import__('repro.models.relational', fromlist=['x'])"
            ".RelationalModelOptions(enable_filter_scan=False)"
        ),
    )
    optimizer = module.build_optimizer(catalog)
    result = optimizer.optimize(select(get("r"), eq("r.v", 1)))
    assert result.plan.algorithm == "filter"


def test_load_failure_is_wrapped(tmp_path):
    # A provider import that cannot resolve must surface as GenerationError.
    spec = relational_model()
    with pytest.raises(GenerationError):
        compile_and_load(
            spec, "repro.no_such_module:nothing", tmp_path / "broken.py"
        )
