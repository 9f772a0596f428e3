"""Optimizer source-code emission (the faithful Figure 1 pipeline).

The paper's generator reads a model specification and writes optimizer
*source code*; "the generated code is compiled and linked with the search
engine that is part of the Volcano optimization software".  A key
implementation trick was that "all strings were translated into integers,
which ensured very fast pattern matching."

This module reproduces that pipeline for a Python host:

* :func:`generate_source` renders a standalone Python module from a
  specification.  The module contains integer-coded operator, algorithm,
  and rule tables frozen at generation time, plus a ``build_optimizer``
  factory that links the tables with the shared search engine.
* The support functions (cost, property, applicability — arbitrary Python
  callables) are obtained at import time from a *provider*, the
  ``module:callable`` that rebuilds the specification; the generated
  module **verifies** the provider against its frozen tables and refuses
  to link when they drifted apart — the moral equivalent of a C compile
  error after changing the model description without re-running the
  generator.
* :func:`compile_and_load` writes the source to disk and imports it
  ("compile and link"), returning the live module.

Tests assert that a generated-module optimizer produces byte-identical
plans to one built directly with :func:`repro.generator.generate_optimizer`.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path
from typing import Optional, Tuple

from repro.errors import GenerationError
from repro.model.patterns import AnyPattern
from repro.model.spec import ModelSpecification
from repro.options import KERNEL_TIERS

__all__ = [
    "generate_source",
    "compile_and_load",
    "render_pattern_code",
    "source_fingerprint",
]

#: Header marker carrying the content hash of the generated module; see
#: :func:`source_fingerprint`.
_FINGERPRINT_MARKER = "# spec-fingerprint: "


def source_fingerprint(source: str) -> Optional[str]:
    """The content hash embedded in a generated module's header, if any.

    :func:`generate_source` stamps every module with a
    ``# spec-fingerprint: <hash>`` first line — the SHA-256 of the rest
    of the module text, i.e. of everything the generator froze from the
    specification.  :func:`compile_and_load` compares fingerprints to
    skip rewriting (and re-importing machinery for) modules whose
    specification has not changed.  Returns ``None`` for text without
    the marker (hand-written or pre-fingerprint modules — always
    regenerated).
    """
    first_line, _, _ = source.partition("\n")
    if first_line.startswith(_FINGERPRINT_MARKER):
        return first_line[len(_FINGERPRINT_MARKER):].strip() or None
    return None


def render_pattern_code(pattern) -> str:
    """Render a pattern as a nested tuple literal of operator codes.

    ``("op", args_as, (children…))`` for OpPattern nodes and
    ``("?", name)`` for AnyPattern leaves — a stable, comparable encoding
    of the rule shapes frozen into the generated module.
    """
    if isinstance(pattern, AnyPattern):
        return f"('?', {pattern.name!r})"
    children = ", ".join(render_pattern_code(child) for child in pattern.inputs)
    if children and len(pattern.inputs) == 1:
        children += ","
    return f"({pattern.operator!r}, {pattern.args_as!r}, ({children}))"


def _parse_provider(provider: str) -> Tuple[str, str]:
    if ":" not in provider:
        raise GenerationError(
            f"provider must be 'module:callable', got {provider!r}"
        )
    module_name, _, attribute = provider.partition(":")
    if not module_name or not attribute:
        raise GenerationError(f"malformed provider {provider!r}")
    return module_name, attribute


def generate_source(
    spec: ModelSpecification,
    provider: str,
    provider_args: str = "",
    *,
    kernel_tier: Optional[str] = None,
) -> str:
    """Emit a Python optimizer module for ``spec``.

    ``provider`` names the ``module:callable`` that reconstructs the
    specification (with ``provider_args`` as its literal argument list,
    e.g. ``"RelationalModelOptions(select_pushdown=True)"`` — the
    expression is embedded verbatim and evaluated at import time in the
    provider module's namespace).

    ``kernel_tier`` bakes a default specialized-kernel tier into the
    module: ``build_optimizer`` then fills ``SearchOptions.kernel`` with
    that tier whenever the caller left it unset (see
    :mod:`repro.generator.kernel`).  ``None`` keeps the historical
    interpreted default.
    """
    spec.validate()
    if kernel_tier is not None and kernel_tier not in KERNEL_TIERS:
        raise GenerationError(
            f"unknown kernel tier {kernel_tier!r}; expected one of {KERNEL_TIERS}"
        )
    module_name, attribute = _parse_provider(provider)

    # Integer-code every name, exactly once, in deterministic order.
    operator_codes = {name: code for code, name in enumerate(sorted(spec.operators))}
    algorithm_codes = {
        name: code for code, name in enumerate(sorted(spec.algorithms))
    }
    enforcer_codes = {name: code for code, name in enumerate(sorted(spec.enforcers))}

    lines = []
    emit = lines.append
    emit('"""Generated optimizer source code — do not edit.')
    emit("")
    emit(f"Generated by repro.generator.codegen from model specification")
    emit(f"{spec.name!r}.  This module freezes the model's operator, algorithm,")
    emit("and rule tables; build_optimizer() re-obtains the support functions")
    emit("from the provider and links everything with the shared search engine.")
    emit('"""')
    emit("")
    emit("from repro.errors import GenerationError")
    emit("from repro.search.engine import SearchOptions, VolcanoOptimizer")
    emit(f"from {module_name} import {attribute} as _provider")
    emit("")
    emit(f"MODEL_NAME = {spec.name!r}")
    emit("# Default specialized-kernel tier baked in at generation time;")
    emit("# None = interpreted (the engine walks pattern objects).")
    emit(f"KERNEL_TIER = {kernel_tier!r}")
    emit("")
    emit("# Operator table: name -> (code, arity); None arity = variadic.")
    emit("OPERATORS = {")
    for name in sorted(spec.operators):
        operator = spec.operators[name]
        emit(f"    {name!r}: ({operator_codes[name]}, {operator.arity!r}),")
    emit("}")
    emit("")
    emit("ALGORITHMS = {")
    for name in sorted(spec.algorithms):
        emit(f"    {name!r}: {algorithm_codes[name]},")
    emit("}")
    emit("")
    emit("ENFORCERS = {")
    for name in sorted(spec.enforcers):
        emit(f"    {name!r}: {enforcer_codes[name]},")
    emit("}")
    emit("")
    emit("# Transformation rules: name -> (top operator code, promise, pattern,")
    emit("# disables, inherits); the masks as sorted tuples of rule names.")
    emit("TRANSFORMATIONS = {")
    for rule in spec.transformations:
        code = operator_codes[rule.top_operator]
        emit(
            f"    {rule.name!r}: ({code}, {rule.promise!r}, "
            f"{render_pattern_code(rule.pattern)}, "
            f"{tuple(sorted(rule.disables))!r}, {tuple(sorted(rule.inherits))!r}),"
        )
    emit("}")
    emit("")
    emit("# Implementation rules: name -> (top operator code, algorithm code,")
    emit("# promise, pattern).")
    emit("IMPLEMENTATIONS = {")
    for rule in spec.implementations:
        operator_code = operator_codes[rule.top_operator]
        algorithm_code = algorithm_codes[rule.algorithm]
        emit(
            f"    {rule.name!r}: ({operator_code}, {algorithm_code}, "
            f"{rule.promise!r}, {render_pattern_code(rule.pattern)}),"
        )
    emit("}")
    emit("")
    emit("")
    emit("def _build_spec():")
    if provider_args:
        emit(f"    return _provider({provider_args})")
    else:
        emit("    return _provider()")
    emit("")
    emit("")
    emit("def _verify(spec):")
    emit('    """Refuse to link when the provider drifted from these tables."""')
    emit("    problems = []")
    emit("    if spec.name != MODEL_NAME:")
    emit("        problems.append(")
    emit("            f'model name {spec.name!r} does not match generated '")
    emit("            f'{MODEL_NAME!r}'")
    emit("        )")
    emit("    if set(spec.operators) != set(OPERATORS):")
    emit("        problems.append('operator set changed')")
    emit("    else:")
    emit("        for name, operator in spec.operators.items():")
    emit("            if OPERATORS[name][1] != operator.arity:")
    emit("                problems.append(f'arity of {name!r} changed')")
    emit("    if set(spec.algorithms) != set(ALGORITHMS):")
    emit("        problems.append('algorithm set changed')")
    emit("    if set(spec.enforcers) != set(ENFORCERS):")
    emit("        problems.append('enforcer set changed')")
    emit("    if {r.name for r in spec.transformations} != set(TRANSFORMATIONS):")
    emit("        problems.append('transformation rule set changed')")
    emit("    if {r.name for r in spec.implementations} != set(IMPLEMENTATIONS):")
    emit("        problems.append('implementation rule set changed')")
    emit("    from repro.generator.codegen import render_pattern_code")
    emit("    for rule in spec.transformations:")
    emit("        frozen = TRANSFORMATIONS.get(rule.name)")
    emit("        if frozen and eval(render_pattern_code(rule.pattern)) != frozen[2]:")
    emit("            problems.append(f'pattern of rule {rule.name!r} changed')")
    emit("        if frozen and (")
    emit("            tuple(sorted(rule.disables)) != frozen[3]")
    emit("            or tuple(sorted(rule.inherits)) != frozen[4]")
    emit("        ):")
    emit("            problems.append(f'masks of rule {rule.name!r} changed')")
    emit("    for rule in spec.implementations:")
    emit("        frozen = IMPLEMENTATIONS.get(rule.name)")
    emit("        if frozen and eval(render_pattern_code(rule.pattern)) != frozen[3]:")
    emit("            problems.append(f'pattern of rule {rule.name!r} changed')")
    emit("    if problems:")
    emit("        raise GenerationError(")
    emit("            'model specification drifted since generation; re-run the '")
    emit("            'optimizer generator: ' + '; '.join(problems)")
    emit("        )")
    emit("")
    emit("")
    emit("def build_optimizer(catalog, options=None, estimator=None):")
    emit('    """Link the generated tables with the search engine."""')
    emit("    spec = _build_spec()")
    emit("    _verify(spec)")
    emit("    if KERNEL_TIER is not None:")
    emit("        if options is None:")
    emit("            options = SearchOptions(kernel=KERNEL_TIER)")
    emit("        elif options.kernel is None:")
    emit("            options = options.replace(kernel=KERNEL_TIER)")
    emit("    return VolcanoOptimizer(")
    emit("        spec, catalog, options=options, estimator=estimator")
    emit("    )")
    emit("")
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    return f"{_FINGERPRINT_MARKER}{digest}\n{body}"


def compile_and_load(
    spec: ModelSpecification,
    provider: str,
    path: Path,
    module_name: Optional[str] = None,
    provider_args: str = "",
    *,
    tier: Optional[str] = None,
    force: bool = False,
):
    """Write generated source to ``path`` and import it.

    Returns the loaded module, whose ``build_optimizer(catalog)`` is the
    generated optimizer's entry point.

    ``path`` may be a module file (the historical behaviour) or an
    existing **directory**, in which case the module lands in a
    content-keyed subdirectory ``<path>/<model>-<fingerprint>/optimizer.py``
    — the cache layout shared with :func:`repro.generator.kernel`.
    Either way, an existing file whose embedded ``# spec-fingerprint:``
    header matches the freshly generated source is reused without being
    rewritten (the specification has not changed); ``force=True``
    rewrites unconditionally.  The module records what happened in
    ``GENERATED`` (``True`` when the file was (re)written, ``False``
    when the cached copy was reused).

    ``tier`` bakes a default specialized-kernel tier into the module
    (see :func:`generate_source`) and eagerly resolves the kernel, so
    the kernel module is generated *now*, at "compile and link" time.
    """
    source = generate_source(
        spec, provider, provider_args=provider_args, kernel_tier=tier
    )
    fingerprint = source_fingerprint(source)
    path = Path(path)
    if path.is_dir():
        path = path / f"{spec.name}-{fingerprint}" / "optimizer.py"
        path.parent.mkdir(parents=True, exist_ok=True)
    reused = (
        not force
        and path.exists()
        and source_fingerprint(path.read_text()) == fingerprint
    )
    if not reused:
        path.write_text(source)
    name = module_name or f"generated_optimizer_{spec.name}"
    module_spec = importlib.util.spec_from_file_location(name, path)
    if module_spec is None or module_spec.loader is None:
        raise GenerationError(f"cannot import generated module from {path}")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[name] = module
    try:
        module_spec.loader.exec_module(module)
    except Exception as error:
        sys.modules.pop(name, None)
        raise GenerationError(f"generated module failed to load: {error}") from error
    setattr(module, "GENERATED", not reused)
    if tier is not None and tier != "interpreted":
        from repro.generator.kernel import kernel_for

        kernel_for(spec, tier, force=force)
    return module
