"""``supmr serve`` is read off :class:`ServiceConfig`: one flag per field."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.faults.plan import SITE_SERVICE_CONN_DROP
from repro.service.cli import config_from_args
from repro.service.core import ServiceConfig

#: Every flag ``supmr serve`` takes; renaming or dropping one breaks
#: the command lines in tools/, bench/ and docs/.
SERVE_FLAGS = {
    "--state-dir", "--host", "--port", "--max-jobs", "--queue-depth",
    "--service-budget", "--retention", "--max-attempts", "--job-timeout",
    "--node-bandwidth", "--qos-policy", "--tenant-budget", "--tenant-jobs",
    "--default-job-budget", "--aging-every", "--shed-factor", "--agents",
    "--health-interval", "--probe-timeout", "--net-timeout", "--faults",
    "--fault-seed",
}

#: flag -> (argument, the field's value), each unlike the default.
SET = {
    "--host": ("0.0.0.0", "0.0.0.0"),
    "--port": ("7070", 7070),
    "--max-jobs": ("5", 5),
    "--queue-depth": ("3", 3),
    "--service-budget": ("1KB", 1024),
    "--retention": ("0", 0),
    "--max-attempts": ("1", 1),
    "--job-timeout": ("2.5", 2.5),
    "--node-bandwidth": ("2KB", 2048),
    "--qos-policy": ("priority", "priority"),
    "--tenant-budget": ("3KB", 3072),
    "--tenant-jobs": ("2", 2),
    "--default-job-budget": ("512", 512),
    "--aging-every": ("0", 0),
    "--shed-factor": ("1.5", 1.5),
    "--agents": ("h:2,h:1", ("h:2", "h:1")),
    "--health-interval": ("0.3", 0.3),
    "--probe-timeout": ("0.7", 0.7),
    "--net-timeout": ("4.0", 4.0),
}


def serve_parser() -> argparse.ArgumentParser:
    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices["serve"]


def parse(*argv: str) -> ServiceConfig:
    args = build_parser().parse_args(["serve", "--state-dir", "D", *argv])
    return config_from_args(args)


def test_serve_takes_exactly_its_flags():
    flags = {
        flag for action in serve_parser()._actions
        for flag in action.option_strings
    } - {"-h", "--help"}
    assert flags == SERVE_FLAGS


def test_every_field_but_fault_plan_has_exactly_one_flag():
    by_dest: dict[str, list[str]] = {}
    for action in serve_parser()._actions:
        by_dest.setdefault(action.dest, []).extend(action.option_strings)
    assert "fault_plan" not in by_dest
    assert by_dest["state_dir"] == ["--state-dir"]
    field_flags = set()
    for f in dataclasses.fields(ServiceConfig):
        if f.name not in ("state_dir", "fault_plan"):
            (flag,) = by_dest[f.name]
            field_flags.add(flag)
    assert field_flags == set(SET)


def test_no_flags_is_the_default_config():
    assert parse() == ServiceConfig(state_dir="D")


@pytest.mark.parametrize("flag", sorted(SET))
def test_each_flag_reaches_its_field(flag):
    (action,) = [
        a for a in serve_parser()._actions if flag in a.option_strings
    ]
    argument, value = SET[flag]
    default = ServiceConfig(state_dir="D")
    assert getattr(default, action.dest) != value
    assert parse(flag, argument) \
        == dataclasses.replace(default, **{action.dest: value})


def test_faults_lower_to_the_fault_plan():
    config = parse("--faults", f"{SITE_SERVICE_CONN_DROP}=once",
                   "--fault-seed", "9")
    assert config.fault_plan.seed == 9
    assert config.fault_plan.spec_for(SITE_SERVICE_CONN_DROP) is not None
