"""Closed-loop control: stepping a run, watching a controller learn.

Three short acts on the PR 10 control subsystem:

1. Drive a run by hand through :class:`repro.control.SimEnv` -- the
   gym-style ``reset()/step(action)/observe()`` loop -- and print the
   windowed observations as they close.
2. Let the registered ``hysteresis`` controller re-discover the paper's
   exposed-terminal fix online: starting from the default CCA threshold it
   steps toward concurrency while loss windows stay clean, recovering
   throughput a mis-set static threshold loses.
3. The one-liner: ``Scenario(controller=..., controller_params=...)`` rides
   the normal ``run()`` path and attaches the per-epoch trace to the
   result meta.

Run it with::

    python examples/online_control.py
"""

from __future__ import annotations

from repro.control import Action, SimEnv
from repro.scenarios import Scenario


def bursty_exposed(name: str, **overrides) -> Scenario:
    """The exposed-terminal pair under heavy-tailed ON/OFF traffic."""
    return Scenario(
        name=name,
        topology="exposed_terminal",
        n_nodes=4,
        extent_m=120.0,
        seed=3,
        duration_s=1.0,
        traffic="onoff",
        traffic_params={"mean_on_s": 0.08, "mean_off_s": 0.04},
        **overrides,
    )


def act1_manual_stepping() -> None:
    print("== act 1: stepping an episode by hand ==")
    env = SimEnv(bursty_exposed("manual"), epoch_s=0.2)
    obs = env.reset()
    while not env.done:
        # Push the CCA threshold up 3 dB every window, just to steer.
        obs = env.step(Action(cca_delta_db=3.0))
        print(
            f"  epoch {obs.epoch}: delivered {obs.delivered_pps:7.1f} pps, "
            f"busy {obs.busy_frac:.2f}, cca {obs.cca_threshold_dbm:.0f} dBm"
        )
    print(f"  total delivered: {env.result_set().scenarios[0]['total_pps']:.1f} pps\n")


def act2_static_vs_adaptive() -> None:
    print("== act 2: hysteresis controller vs mis-set static threshold ==")
    static = bursty_exposed("static").run()
    adaptive = bursty_exposed(
        "adaptive",
        controller="hysteresis",
        controller_params={"step_db": 6.0},
        control_epoch_s=0.1,
    ).run()
    static_pps = float(static.delivered_pps.sum())
    adaptive_pps = float(adaptive.delivered_pps.sum())
    print(f"  static default threshold: {static_pps:8.1f} pps")
    print(f"  hysteresis controller:    {adaptive_pps:8.1f} pps "
          f"({adaptive_pps / static_pps:.2f}x)\n")


def act3_trace_on_the_result() -> None:
    print("== act 3: the per-epoch trace rides the result meta ==")
    result = bursty_exposed(
        "traced", controller="hysteresis",
        controller_params={"step_db": 6.0}, control_epoch_s=0.2,
    ).run()
    control = result.scenarios[0]["control"]
    print(f"  controller={control['controller']} epochs={control['epochs']}")
    for row in control["trace"]:
        print(
            f"  epoch {row['epoch']}: cca {row['cca_threshold_dbm']:.0f} dBm, "
            f"delivered {row['delivered_pps']:7.1f} pps"
        )


def main() -> None:
    act1_manual_stepping()
    act2_static_vs_adaptive()
    act3_trace_on_the_result()


if __name__ == "__main__":
    main()
