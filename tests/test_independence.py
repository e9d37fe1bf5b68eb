"""Engines that are checked against each other must not share code.

`spins` is the root oracle, so it imports nothing from the package.  The
current sums and the gauge chains share the GF(2) coset enumerator `gf2`,
so the engines they are checked against (`spins`, `sweep`) and the
samplers take nothing from it.
`sample currents` checks the rejection sampler against the support kernel,
so the sampler may take only the edge-state record and the per-edge weight
table from `currents`, none of the kernel.
"""

import ast
from pathlib import Path

import isinglab

SRC = Path(isinglab.__file__).parent


def _package_imports(module):
    """(module imported from, names) for every import of the package in
    `module`, at any depth of the file."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                out.append((node.module or "", {a.name for a in node.names}))
            elif (node.module or "").split(".")[0] == "isinglab":
                rest = node.module.split(".", 1)[1:]
                out.append((rest[0] if rest else "",
                            {a.name for a in node.names}))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "isinglab":
                    out.append((a.name, {a.name}))
    return out


def test_spin_oracle_imports_nothing_from_the_package():
    assert _package_imports("spins") == []


def test_samplers_take_no_kernel_from_currents():
    from_currents = set()
    for module, names in _package_imports("samplers"):
        if module == "currents":
            from_currents |= names
        else:
            assert module != "" or "currents" not in names
    # none of _support_expectations, _subgraph_sums, _pattern_labels or
    # single_support_expectations
    assert from_currents <= {"EdgeStateConfig", "edge_weight_table"}


def test_spins_sweep_and_samplers_take_nothing_from_gf2():
    for module in ("spins", "sweep", "samplers"):
        for source, names in _package_imports(module):
            assert "gf2" not in source and "gf2" not in names
