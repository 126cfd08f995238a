"""Tests of the trace's request ids: every span of a planning step carries
that step's id, although the step's root span returns before the solve."""

import tracing


def traced_job(tracer, steps):
    build = tracer.span("intersection.build_instance", lambda: None)
    solve = tracer.span("ilp.solve", tracer.span("ilp.backend", lambda: None))

    def simulate():
        for _ in range(steps):
            build()
            solve()

    return tracer.span("intersection.simulate", simulate)


def spans(tracer):
    return list(zip(tracer.span_names(), tracer.request))


def test_solve_carries_the_request_id_of_its_own_step():
    tracer = tracing.Tracer()
    job = traced_job(tracer, steps=3)
    job()
    job()
    recorded = spans(tracer)
    steps = []
    for name, request in recorded:
        if name == "intersection.build_instance":
            steps.append([request])
        elif name in ("ilp.solve", "ilp.backend"):
            steps[-1].append(request)
    assert len(steps) == 6
    assert all(len(set(ids)) == 1 and len(ids) == 3 for ids in steps)
    step_ids = [ids[0] for ids in steps]
    job_ids = [r for name, r in recorded if name == "intersection.simulate"]
    assert len(set(step_ids + job_ids)) == 8


def test_request_id_ends_with_the_enclosing_span():
    tracer = tracing.Tracer()
    tracer.span("grid.benchmark_rows", tracer.span("grid.generate", lambda: None))()
    tracer.span("ilp.solve", lambda: None)()
    tracer.span("grid.generate", lambda: None)()
    tracer.span("ilp.solve", lambda: None)()
    assert spans(tracer) == [
        ("grid.benchmark_rows", 0), ("grid.generate", 1), ("ilp.solve", 0),
        ("grid.generate", 2), ("ilp.solve", 0),
    ]
