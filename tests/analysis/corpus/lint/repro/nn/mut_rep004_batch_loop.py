"""REP004 mutant: a Python loop over the batch inside a kernel module."""


def forward(batch_size: int) -> int:
    total = 0
    for i in range(batch_size):  # REP004
        total += i
    return total
