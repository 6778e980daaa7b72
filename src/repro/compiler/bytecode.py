"""The count of lowered lambda bodies, which benchmarks read per job.

Nothing lowers a lambda body since the gen-3 tier was retired
(DESIGN.md §7.2), so the count is always 0.
"""


def code_count() -> int:
    """Number of lambda bodies lowered in this process: always 0."""
    return 0
