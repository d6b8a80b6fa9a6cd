"""Broken variants of lp's northwest-corner plan and its potentials.

Each one must fail verify_gamma: test_lp checks that gamma raises and
memoizes nothing, test_cli the exit code and message of lp-gamma --l 4.
"""

from torusk import lp


def _moved_unit(plan):
    """One unit of flow moved from the first cell to the last: row ell then
    ships phi(ell) + 1."""
    def mutant(ell):
        cells = plan(ell)
        (i, j, f), (i2, j2, f2) = cells[0], cells[-1]
        cells[0], cells[-1] = (i, j, f - 1), (i2, j2, f2 + 1)
        return cells
    return mutant


def _zero_cells_dropped(plan):
    """The plan without its zero-flow cells: the staircase falls apart and
    the potentials past the gap are fixed from a column never reached."""
    return lambda ell: [cell for cell in plan(ell) if cell[2]]


def _unshifted(potentials):
    """The potentials as the walk leaves them, v_ell = 0, so u_1 < 0."""
    def mutant(ell, cells):
        u, v = potentials(ell, cells)
        return [x - v[ell] for x in u], [x - v[ell] for x in v]
    return mutant


PLAN_MUTANTS = {
    # mutant: (attribute it wraps, wrapper, verify_gamma's message at ell = 4)
    "moved-unit": ("_northwest_plan", _moved_unit,
                   "dual witness rejected: dual infeasible at column 3"),
    "zero-cell-dropped": ("_northwest_plan", _zero_cells_dropped,
                          "primal witness infeasible: |3 tau_4 - 4 sigma_3| = |4/3| > 1"),
    "unshifted": ("_staircase_potentials", _unshifted,
                  "primal witness infeasible: sigma_1 < 0"),
}


def patch_plan(monkeypatch, mutant):
    """Wrap the lp helper the named mutant breaks, through monkeypatch."""
    attr, wrap, _ = PLAN_MUTANTS[mutant]
    monkeypatch.setattr(lp, attr, wrap(getattr(lp, attr)))
