"""E4 — the code-size argument (paper section 4).

Paper claim: the conformance wrapper and state conversion functions have
1105 semicolons — two orders of magnitude less than the Linux 2.2 kernel —
so they are unlikely to introduce new bugs.

We count logical statements (the Python analogue) in the BASE-specific glue
and compare against the wrapped implementations, plus the documented size of
Linux 2.2 for the two-orders-of-magnitude framing.
"""

from repro.bench.codesize import count_semicolon_lines, wrapper_code_size
from repro.bench.metrics import ExperimentTable

from benchmarks.conftest import show

LINUX_22_STATEMENTS = 1_700_000  # ~1.7M lines in Linux 2.2, paper's yardstick


def test_wrapper_is_small():
    sizes = wrapper_code_size()

    table = ExperimentTable("E4: code-size comparison (logical statements)")
    for name, value in sizes.items():
        table.add_row(component=name, statements=value)
    table.add_row(
        component="linux-2.2 (paper yardstick)", statements=LINUX_22_STATEMENTS
    )
    show(table)

    base_glue = sizes["total_base_specific"]

    # The wrapper+conversion glue is small in absolute terms (same order as
    # the paper's 1105) and dwarfed by what it reuses.
    assert base_glue < 2500
    assert base_glue < sizes["total_implementations"] * 1.5
    # Two orders of magnitude below the kernel yardstick.
    assert base_glue * 100 < LINUX_22_STATEMENTS


def test_statement_counter_sanity():
    statements = count_semicolon_lines(
        '"""doc"""\n'
        "import os\n"
        "x = 1\n"
        "if x:\n"
        "    y = 2\n"
        "def f():\n"
        "    '''doc'''\n"
        "    return 3\n"
    )
    assert statements == 4  # import, x=1, y=2, return — not docstrings/defs
