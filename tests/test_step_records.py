"""Every record the loop hands out is whole. The loop builds its `Fan`,
`AltPath` and `StepTrace` records with `tuple.__new__`, which skips the
arity check of the generated `__new__`, so a record one field short would
otherwise pass unnoticed until a reader unpacked it."""

from __future__ import annotations

from mgcolor import AltPath, Fan, StepTrace, gnp_graph, mk_edge_coloring, vizing


def assert_whole(record, cls):
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert cls(*record) == record


def test_every_record_the_loop_hands_out_is_whole(monkeypatch):
    made = {"maximal_fan": [], "find_subfan": [], "maximal_path": []}

    def recorded(name, fn):
        def wrapper(*args):
            out = fn(*args)
            made[name].append((args, out))
            return out
        return wrapper

    for name in made:
        monkeypatch.setattr(vizing, name, recorded(name, getattr(vizing, name)))
    steps = []
    mk_edge_coloring(gnp_graph(120, 0.1, seed=1), on_step=steps.append)

    assert len(steps) == 727
    for step in steps:
        assert_whole(step, StepTrace)
    for _, fan in made["maximal_fan"]:
        assert_whole(fan, Fan)
    for _, path in made["maximal_path"]:
        assert_whole(path, AltPath)
    # Both of `find_subfan`'s answers: the fan it was given, and a prefix.
    truncated = 0
    for (_, fan, _, _), sub in made["find_subfan"]:
        assert_whole(sub, Fan)
        truncated += sub is not fan
    assert 0 < truncated < len(made["find_subfan"])
