"""Small hand-built instances shared by the test modules."""

from mccssp.model import AgentMdp, InteractionPoint, MccSspInstance, StateRisk


def make_risky_safe_instance(delta=0.1, horizon=1):
    """One agent, one action pair: safe pays 1 with no risk, risky pays 10
    and lands in a 0.2-risk state."""
    agent = AgentMdp(
        states={"start", "safe_end", "risky_end"},
        actions=("safe", "risky"),
        transition={
            ("start", "safe"): {"safe_end": 1.0},
            ("start", "risky"): {"risky_end": 1.0},
            ("safe_end", "safe"): {"safe_end": 1.0},
            ("safe_end", "risky"): {"safe_end": 1.0},
            ("risky_end", "safe"): {"risky_end": 1.0},
            ("risky_end", "risky"): {"risky_end": 1.0},
        },
        utility={
            ("start", "safe"): 1.0,
            ("start", "risky"): 10.0,
            ("safe_end", "safe"): 0.0,
            ("safe_end", "risky"): 0.0,
            ("risky_end", "safe"): 0.0,
            ("risky_end", "risky"): 0.0,
        },
        initial_state="start",
        wait_action="safe",
    )
    point = InteractionPoint(
        id=0,
        members=("v",),
        utility_owners=(True,),
        risk={"col": StateRisk.from_aggregate({("risky_end",): 0.2})},
    )
    return MccSspInstance(
        agents={"v": agent},
        interactions=(point,),
        horizon=horizon,
        risk_budgets={"col": delta},
    )


def make_chain_instance(risk=0.1, horizon=3, utility=2.0, budget=1.0):
    """Deterministic 4-state chain with per-state risk on the first three."""
    agent = AgentMdp(
        states={0, 1, 2, 3},
        actions=("go",),
        transition={(s, "go"): {min(s + 1, 3): 1.0} for s in range(4)},
        utility={(s, "go"): utility for s in range(4)},
        initial_state=0,
    )
    point = InteractionPoint(
        id=0,
        members=("c",),
        utility_owners=(True,),
        risk={"col": StateRisk.from_aggregate({(0,): risk, (1,): risk, (2,): risk})},
    )
    return MccSspInstance(
        agents={"c": agent},
        interactions=(point,),
        horizon=horizon,
        risk_budgets={"col": budget},
    )


def make_coinflip_pair_instance(horizon=1):
    """Two independent agents flipping between two states."""

    def coin(name):
        return AgentMdp(
            states={f"{name}0", f"{name}1"},
            actions=("flip",),
            transition={
                (f"{name}0", "flip"): {f"{name}0": 0.5, f"{name}1": 0.5},
                (f"{name}1", "flip"): {f"{name}0": 0.5, f"{name}1": 0.5},
            },
            utility={(f"{name}0", "flip"): 1.0, (f"{name}1", "flip"): 0.0},
            initial_state=f"{name}0",
        )

    point = InteractionPoint(
        id=0, members=("a", "b"), utility_owners=(True, True), risk={}
    )
    return MccSspInstance(
        agents={"a": coin("a"), "b": coin("b")},
        interactions=(point,),
        horizon=horizon,
        risk_budgets={"col": 1.0},
    )
