"""The optimizer generator: spec validation, linking, source emission (S8)."""

from repro.generator.codegen import (
    compile_and_load,
    generate_source,
    source_fingerprint,
)
from repro.generator.generate import generate_optimizer, lint_specification
from repro.generator.kernel import (
    SearchKernel,
    clear_kernel_caches,
    generate_kernel_source,
    kernel_cache_dir,
    kernel_for,
    resolve_kernel,
    spec_fingerprint,
)

__all__ = [
    "compile_and_load",
    "generate_source",
    "source_fingerprint",
    "generate_optimizer",
    "lint_specification",
    "SearchKernel",
    "clear_kernel_caches",
    "generate_kernel_source",
    "kernel_cache_dir",
    "kernel_for",
    "resolve_kernel",
    "spec_fingerprint",
]
