"""Specialized per-model search kernels (generated move loops).

The paper's generator emits optimizer *source code* in which "all strings
were translated into integers, which ensured very fast pattern matching".
:mod:`repro.generator.codegen` freezes integer tables but still links the
generic interpreted engine; this module goes the rest of the way: it
emits a **search kernel** — a Python module in which every rule's pattern
match is unrolled into straight-line code.

For each transformation and implementation rule the kernel contains a
generator function equivalent to
:func:`repro.model.patterns.match_memo` for that rule's pattern, with

* the pattern-tree walk removed (nested ``OpPattern`` nodes become
  nested ``for`` loops over ``expressions_of``),
* operator comparisons against interned string constants (CPython
  resolves these by pointer identity first — the moral equivalent of the
  paper's integer comparison; the kernel also assigns every operator,
  algorithm, and rule a frozen integer code),
* binding dicts built as single literals in the exact key order the
  interpreter produces.

A :class:`SearchKernel` binds the generated matchers to the *live* rule
objects of a specification and hands the search engine per-operator
dispatch tables.  Kernelized runs are byte-identical to interpreted runs
by construction: the matchers yield the same bindings in the same order
over the same live ``expressions_of`` callback (lazy semantics included
— rules fired mid-enumeration are observed, exactly like the
interpreter), and everything else in the engine is shared.

Tiers
-----

``"interpreted"``
    No kernel: the engine walks pattern objects (the baseline).
``"specialized"``
    The generated pure-Python kernel.

Generated modules are cached on disk keyed by a content hash of the
generated source (see :func:`spec_fingerprint`); unchanged specs reuse
the cached module file, and ``force=True`` regenerates.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
import types
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import GenerationError
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.spec import ModelSpecification
from repro.options import KERNEL_TIERS

__all__ = [
    "SearchKernel",
    "generate_kernel_source",
    "spec_fingerprint",
    "kernel_for",
    "resolve_kernel",
    "kernel_cache_dir",
    "clear_kernel_caches",
]

#: Bumped whenever the generated-module layout changes; part of the
#: fingerprint so stale cache files from older layouts never load.
KERNEL_SCHEMA = 3

_CACHE_ENV = "REPRO_KERNEL_CACHE"


# ---------------------------------------------------------------------------
# Matcher code emission
# ---------------------------------------------------------------------------


def _emit_matcher(name: str, pattern: OpPattern, rule_name: str) -> List[str]:
    """Emit one rule's inlined binding enumerator.

    The generated function is the unrolled equivalent of
    ``match_memo(pattern, operator, args, input_groups, expressions_of)``
    *given* that the caller dispatched on the pattern's top operator (the
    kernel's per-operator tables guarantee it).  Bindings are yielded as
    fresh dict literals whose key order replicates the interpreter's
    insertion order — the engine fingerprints bindings by their items,
    so the order is part of the contract.
    """
    lines: List[str] = [f"def {name}(args, input_groups, expressions_of):"]
    lines.append(f'    """[{rule_name}] inlined matcher for {str(pattern)!r}."""')
    arity = len(pattern.inputs)
    lines.append(f"    if len(input_groups) != {arity}:")
    lines.append("        return")
    binds: List[Tuple[str, str]] = []
    if pattern.args_as is not None:
        binds.append((pattern.args_as, "args"))
    counter = [0]

    def emit_inputs(patterns, group_exprs, indent: int) -> None:
        pad = "    " * indent
        if not patterns:
            items = ", ".join(f"{key!r}: {value}" for key, value in binds)
            lines.append(f"{pad}yield {{{items}}}")
            return
        head, rest_patterns = patterns[0], patterns[1:]
        head_group, rest_groups = group_exprs[0], group_exprs[1:]
        if isinstance(head, AnyPattern):
            binds.append((head.name, f"group_leaf({head_group})"))
            emit_inputs(rest_patterns, rest_groups, indent)
            binds.pop()
            return
        if not isinstance(head, OpPattern):  # pragma: no cover - validated specs
            raise GenerationError(f"not a pattern node: {head!r}")
        n = counter[0]
        counter[0] += 1
        op_v, args_v, igs_v = f"op_{n}", f"args_{n}", f"igs_{n}"
        lines.append(
            f"{pad}for {op_v}, {args_v}, {igs_v} in expressions_of({head_group}):"
        )
        inner = pad + "    "
        lines.append(
            f"{inner}if {op_v} != {head.operator!r} "
            f"or len({igs_v}) != {len(head.inputs)}:"
        )
        lines.append(f"{inner}    continue")
        if head.args_as is not None:
            binds.append((head.args_as, args_v))
        emit_inputs(
            tuple(head.inputs) + tuple(rest_patterns),
            tuple(f"{igs_v}[{i}]" for i in range(len(head.inputs)))
            + tuple(rest_groups),
            indent + 1,
        )
        if head.args_as is not None:
            binds.pop()

    emit_inputs(
        tuple(pattern.inputs),
        tuple(f"input_groups[{i}]" for i in range(arity)),
        1,
    )
    return lines


def generate_kernel_source(spec: ModelSpecification) -> str:
    """Emit the specialized kernel module for ``spec`` (without header).

    The emitted module is self-verifying raw material: it carries the
    rendered pattern of every rule so :func:`kernel_for` can refuse to
    bind a cached kernel to a drifted specification.
    """
    from repro.generator.codegen import render_pattern_code

    spec.validate()
    operator_codes = {name: code for code, name in enumerate(sorted(spec.operators))}
    algorithm_codes = {
        name: code for code, name in enumerate(sorted(spec.algorithms))
    }
    enforcer_codes = {name: code for code, name in enumerate(sorted(spec.enforcers))}

    lines: List[str] = []
    emit = lines.append
    emit('"""Generated search kernel — do not edit.')
    emit("")
    emit(f"Specialized move loops for model {spec.name!r}: every rule's pattern")
    emit("match is unrolled into straight-line generator code (see")
    emit("repro.generator.kernel).  Regenerate with `python -m repro.generator`.")
    emit('"""')
    emit("")
    emit("from repro.algebra.expressions import group_leaf")
    emit("")
    emit(f"KERNEL_SCHEMA = {KERNEL_SCHEMA}")
    emit(f"MODEL_NAME = {spec.name!r}")
    emit("")
    emit("# Frozen integer codes (stable within a fingerprint).")
    emit(f"OPERATOR_CODES = {operator_codes!r}")
    emit(f"ALGORITHM_CODES = {algorithm_codes!r}")
    emit(f"ENFORCER_CODES = {enforcer_codes!r}")
    emit("")
    def emit_rules(rules, prefix: str) -> List[str]:
        rows = []
        for index, rule in enumerate(rules):
            fname = f"_{prefix}{index}"
            emit("")
            lines.extend(_emit_matcher(fname, rule.pattern, rule.name))
            rows.append(
                f"    ({rule.name!r}, {rule.top_operator!r}, "
                f"{render_pattern_code(rule.pattern)!r}, {fname}),"
            )
        return rows

    transformation_rows = emit_rules(spec.transformations, "t")
    implementation_rows = emit_rules(spec.implementations, "i")
    emit("")
    emit("")
    emit("# (rule name, top operator, rendered pattern, matcher) in spec order.")
    emit("TRANSFORMATION_MATCHERS = (")
    lines.extend(transformation_rows)
    emit(")")
    emit("")
    emit("IMPLEMENTATION_MATCHERS = (")
    lines.extend(implementation_rows)
    emit(")")
    emit("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

# Fingerprint memo keyed by the spec object's id, validated by weakref
# (a reused id after garbage collection misses instead of lying).
_FINGERPRINTS: Dict[int, Tuple["weakref.ref", str, str]] = {}


def spec_fingerprint(spec: ModelSpecification) -> str:
    """Content hash of everything the kernel freezes for ``spec``.

    Two specifications share a fingerprint exactly when their generated
    kernels are textually identical — same operators, algorithms,
    enforcers, rule names, promises and pattern shapes.  Support
    *functions* (conditions, rewrites, cost code) are deliberately not
    hashed: the kernel never encodes them — it binds the live rule
    objects at resolution time, so two specs differing only in Python
    callables correctly share one kernel module.
    """
    return _source_and_fingerprint(spec)[1]


def _source_and_fingerprint(spec: ModelSpecification) -> Tuple[str, str]:
    key = id(spec)
    memo = _FINGERPRINTS.get(key)
    if memo is not None:
        ref, source, fingerprint = memo
        if ref() is spec:
            return source, fingerprint
        del _FINGERPRINTS[key]
    source = generate_kernel_source(spec)
    fingerprint = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    try:
        _FINGERPRINTS[key] = (weakref.ref(spec), source, fingerprint)
    except TypeError:  # spec type without weakref support
        pass
    return source, fingerprint


# ---------------------------------------------------------------------------
# The kernel object
# ---------------------------------------------------------------------------


class SearchKernel:
    """A specification's generated move loops, bound to its live rules.

    ``transformation_dispatch`` and ``implementation_dispatch`` map a top
    operator to a tuple of ``(rule, matcher)`` pairs in specification
    order — drop-in replacements for the engine's interpreted dispatch
    tables, with a generated matcher alongside each rule.

    Pickling collapses to the *tier string* (kernels hold generated
    functions, which do not pickle): the receiving process —
    e.g. an ``optimize_many`` worker — re-resolves the kernel for its
    own spec object via :func:`resolve_kernel`, hitting the module cache.
    """

    __slots__ = (
        "model",
        "fingerprint",
        "source_path",
        "transformation_dispatch",
        "implementation_dispatch",
        "module",
    )

    #: Every kernel object is the one generated tier.
    tier = "specialized"

    def __init__(
        self,
        spec: ModelSpecification,
        module: types.ModuleType,
        *,
        fingerprint: str,
        source_path: Optional[Path] = None,
    ):
        self.model = spec.name
        self.fingerprint = fingerprint
        self.source_path = source_path
        self.module = module
        self.transformation_dispatch = _bind_dispatch(
            spec.transformations,
            module.TRANSFORMATION_MATCHERS,
            "transformation",
            spec,
        )
        self.implementation_dispatch = _bind_dispatch(
            spec.implementations,
            module.IMPLEMENTATION_MATCHERS,
            "implementation",
            spec,
        )

    def __reduce__(self):
        return (str, (self.tier,))

    def __repr__(self) -> str:
        return (
            f"<SearchKernel {self.model} {self.fingerprint} "
            f"tier={self.tier!r}>"
        )


def _bind_dispatch(rules, matcher_rows, kind: str, spec: ModelSpecification):
    """Pair live rule objects with their generated matchers, verified."""
    from repro.generator.codegen import render_pattern_code

    if len(rules) != len(matcher_rows):
        raise GenerationError(
            f"kernel drift: module has {len(matcher_rows)} {kind} matchers "
            f"but spec {spec.name!r} has {len(rules)} rules — regenerate"
        )
    dispatch: Dict[str, List] = {}
    for rule, row in zip(rules, matcher_rows):
        name, top_operator, rendered, matcher = row
        if rule.name != name or rule.top_operator != top_operator:
            raise GenerationError(
                f"kernel drift: {kind} rule {rule.name!r} does not match "
                f"generated entry {name!r} — regenerate"
            )
        if render_pattern_code(rule.pattern) != rendered:
            raise GenerationError(
                f"kernel drift: pattern of {kind} rule {rule.name!r} changed "
                f"since generation — regenerate"
            )
        dispatch.setdefault(top_operator, []).append((rule, matcher))
    return {operator: tuple(pairs) for operator, pairs in dispatch.items()}


# ---------------------------------------------------------------------------
# Caching and loading
# ---------------------------------------------------------------------------

# fingerprint -> (module, path)
_MODULES: Dict[str, Tuple[types.ModuleType, Optional[Path]]] = {}


def kernel_cache_dir() -> Path:
    """The on-disk kernel cache root (override with $REPRO_KERNEL_CACHE)."""
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def clear_kernel_caches() -> None:
    """Drop the in-process module and fingerprint caches (tests)."""
    _MODULES.clear()
    _FINGERPRINTS.clear()


def _load_module_from_path(name: str, path: Path) -> types.ModuleType:
    module_spec = importlib.util.spec_from_file_location(name, path)
    if module_spec is None or module_spec.loader is None:
        raise GenerationError(f"cannot import generated kernel from {path}")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[name] = module
    try:
        module_spec.loader.exec_module(module)
    except Exception as error:
        sys.modules.pop(name, None)
        raise GenerationError(f"generated kernel failed to load: {error}") from error
    return module


def _exec_in_memory(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = f"<generated kernel {name}>"
    exec(compile(source, module.__file__, "exec"), module.__dict__)
    return module


def _materialize(
    spec: ModelSpecification, source: str, fingerprint: str, force: bool
) -> Tuple[types.ModuleType, Optional[Path]]:
    """Write-or-reuse the kernel source on disk and import it.

    Layout: ``<cache>/<model>-<fingerprint>/kernel.py``.  An existing
    ``kernel.py`` under the same fingerprint directory is trusted
    verbatim (the fingerprint *is* the content hash) unless ``force``
    rewrites it.  Unwritable cache directories degrade to executing the
    source in memory.
    """
    name = f"repro_kernel_{spec.name}_{fingerprint}"
    try:
        directory = kernel_cache_dir() / f"{spec.name}-{fingerprint}"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "kernel.py"
        if force or not path.exists():
            # Write-then-rename so concurrent processes never import a
            # half-written module.
            handle = tempfile.NamedTemporaryFile(
                "w", dir=directory, suffix=".tmp", delete=False
            )
            try:
                handle.write(source)
            finally:
                handle.close()
            os.replace(handle.name, path)
        return _load_module_from_path(name, path), path
    except OSError:
        return _exec_in_memory(name, source), None


def kernel_for(
    spec: ModelSpecification,
    tier: str = "specialized",
    *,
    force: bool = False,
) -> Optional[SearchKernel]:
    """The (cached) search kernel for ``spec`` at ``tier``.

    ``"interpreted"`` returns ``None`` (no kernel — the engine's pattern
    interpreter runs).  ``"specialized"`` generates (or reuses, keyed by
    content fingerprint) the pure-Python kernel.

    The returned kernel is bound to *this* ``spec``'s rule objects; the
    underlying generated module is shared across equal-fingerprint
    specs.  ``force`` rewrites the cached module file.
    """
    if tier not in KERNEL_TIERS:
        raise GenerationError(
            f"unknown kernel tier {tier!r}; expected one of {KERNEL_TIERS}"
        )
    if tier == "interpreted":
        return None
    source, fingerprint = _source_and_fingerprint(spec)
    cached = None if force else _MODULES.get(fingerprint)
    if cached is None:
        cached = _materialize(spec, source, fingerprint, force)
        _MODULES[fingerprint] = cached
    module, path = cached
    return SearchKernel(spec, module, fingerprint=fingerprint, source_path=path)


def resolve_kernel(spec: ModelSpecification, kernel) -> Optional[SearchKernel]:
    """Normalize a ``SearchOptions.kernel`` value for ``spec``.

    Accepts ``None``/``"interpreted"`` (no kernel), a tier string, or a
    :class:`SearchKernel`.  A kernel object is re-resolved through the
    module cache so it is always bound to the *caller's* spec object —
    a kernel built for a different specification (different fingerprint)
    is rejected rather than silently producing wrong dispatch tables.
    """
    if kernel is None:
        return None
    if isinstance(kernel, str):
        return kernel_for(spec, kernel)
    if isinstance(kernel, SearchKernel):
        if kernel.fingerprint != spec_fingerprint(spec):
            raise GenerationError(
                f"kernel {kernel.fingerprint} was generated for a different "
                f"specification than {spec.name!r} — pass a tier string or "
                f"regenerate with kernel_for()"
            )
        return kernel_for(spec, kernel.tier)
    raise GenerationError(
        f"SearchOptions.kernel must be None, a tier string "
        f"{KERNEL_TIERS}, or a SearchKernel; got {type(kernel).__name__}"
    )
