"""The reference route shared by the tests: a case row's pairing table."""

from dpcylinders.divisors import PairingTable


def row_reference(row, degree):
    """The pairing table of a case row at a degree, and the row's relation
    configuration by label (D1..Dk, then E when the row uses it), read from
    the row's node and E coefficients."""
    table = PairingTable(
        degree, (row.singularity,) if row.singularity else (), bool(row.e_coefficient)
    )
    coefficients = row.node_coefficients + (
        (row.e_coefficient,) if row.e_coefficient else ()
    )
    return table, dict(zip(table.labels[1:], coefficients, strict=True))


def pairings(table, c):
    """The class c's pairing with each label, in label order."""
    return {label: table.pair(c, table.vector({label: 1})) for label in table.labels}
