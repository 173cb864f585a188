"""The ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import _EXPERIMENTS, _SCENARIOS, build_parser, main


def test_catalogue_covers_every_figure_and_section():
    expected = {
        "figure3a", "figure3b", "figure3c", "figure4", "figure5",
        "figure6", "figure7",
        "section5", "section6", "section7", "section8", "section9.3",
        "section10",
    }
    assert set(_EXPERIMENTS) == expected


def test_scenario_catalogue_exposes_registry():
    from repro.scenarios import scenario_names

    assert set(_SCENARIOS) == set(scenario_names())
    assert "rack8-kvs-sharded" in _SCENARIOS
    assert "rack-mixed" in _SCENARIOS
    assert "fig6-kvs-netctl" in _SCENARIOS


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure3a" in out
    assert "section10" in out
    assert "rack8-kvs-sharded" in out


def test_list_flag_prints_descriptions(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "rack-mixed" in out
    # scenario descriptions ride along
    assert "2 Paxos groups" in out
    assert "Figure 6: host-controlled" in out
    # the sweep catalogue rides along too
    assert "sweeps (run with --sweep):" in out
    assert "sweep-rack-kvs" in out
    assert "sweep-rack-mixed" in out


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["figure3a", "figure4", "section6", "section7", "section8"]
)
def test_analytic_experiments_render(capsys, name):
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 3


def test_figure7_with_duration(capsys):
    assert main(["figure7", "--duration", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "Paxos leader" in out


def test_scenario_runs_from_cli(capsys):
    assert main(["fig7-paxos-transition", "--duration", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "paxos[paxos]" in out


def test_unknown_experiment_rejected(capsys):
    assert main(["nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment or scenario" in err


def test_unknown_name_suggests_closest_match(capsys):
    assert main(["rack-mxed"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'rack-mixed'?" in err

    assert main(["figure6a"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err


def test_mixed_case_typos_still_get_suggestions(capsys):
    """Regression: difflib on raw names meant 'Rack-Mixd' or
    'FIG6-KVS-TRANSITON' produced no suggestion at all."""
    assert main(["Rack-Mixd"]) == 2
    assert "did you mean 'rack-mixed'?" in capsys.readouterr().err

    assert main(["FIG6-KVS-TRANSITON"]) == 2
    assert "did you mean 'fig6-kvs-transition'?" in capsys.readouterr().err


def test_exact_case_insensitive_names_run_directly(capsys):
    """'SECTION8' and 'FIG7-PAXOS-TRANSITION' are exact hits, not typos."""
    assert main(["SECTION8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 3

    assert main(["FIG7-PAXOS-TRANSITION", "--duration", "0.6"]) == 0
    assert "paxos[paxos]" in capsys.readouterr().out


def test_parser_accepts_optional_experiment():
    args = build_parser().parse_args(["--list"])
    assert args.experiment is None and args.list


def test_parser_accepts_sweep_flag():
    args = build_parser().parse_args(["--sweep", "sweep-rack-kvs"])
    assert args.sweep == "sweep-rack-kvs" and args.experiment is None


def test_sweep_seeds_with_anchor(capsys):
    """--anchor combines with --seeds: every seed replays the anchored
    point, so its win count carries no estimate mark."""
    assert main([
        "--sweep", "sweep-rack-kvs", "--seeds", "2", "--search", "adaptive",
        "--anchor", "n_hosts=1,rate_per_host_kpps=16.0",
        "--duration", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "K=2 seeds" in out
    (row,) = [
        line for line in out.splitlines()
        if line.split()[:2] == ["1", "16.0"]
    ]
    assert not row.split()[-1].startswith("~")
