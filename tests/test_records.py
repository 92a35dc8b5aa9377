"""The contract of the package's ten records, each built the way the program builds it.

A record is frozen, equal and hashed by its constructor's arguments, and
survives pickling, which ``--parallel`` relies on to send environments,
schemes and run records to its workers.
"""

import inspect
import pickle

import pytest

from lilklucb.bandit import lil_klucb, predicted_complexity
from lilklucb.cli import RunConfig, build_config, cmd_identify, derive_seed
from lilklucb.confidence import BoundScheme, threshold
from lilklucb.data_ingest import ExperimentOutput, parse_contest_csv
from lilklucb.environments import (
    Bernoulli,
    Draws,
    Environment,
    bernoulli_environment,
    from_contest,
)

CONTEST_CSV = (
    "caption,unfunny,somewhat_funny,funny\n"
    "sharp,1,3,16\n"
    "fine,4,8,8\n"
    "meh,10,8,2\n"
)

IDENTIFY = ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "2"]


def _contest(tmp_path):
    path = tmp_path / "contest_7.csv"
    path.write_text(CONTEST_CSV, encoding="utf-8")
    return parse_contest_csv(path)


def _config(tmp_path):
    return build_config(IDENTIFY + ["--output", str(tmp_path / "o.csv")])


# One record of each class, as the program makes it; two calls make equal records.
BUILDERS = {
    "Bernoulli": lambda tmp_path: bernoulli_environment((0.7, 0.3)).arms[0],
    "Bootstrap": lambda tmp_path: from_contest(_contest(tmp_path)).arms[0],
    "Environment": lambda tmp_path: bernoulli_environment((0.7, 0.5, 0.3)),
    "Caption": lambda tmp_path: _contest(tmp_path).captions[0],
    "ContestDataset": _contest,
    "BoundScheme": lambda tmp_path: BoundScheme("kl", 8, 0.05),
    "RunRecord": lambda tmp_path: lil_klucb(bernoulli_environment((0.8, 0.4)),
                                            BoundScheme("kl", 8, 0.1), None,
                                            Draws(derive_seed(3, 0))),
    "ComplexityBound": lambda tmp_path: predicted_complexity((0.8, 0.6, 0.4), 0.05, 9),
    "RunConfig": _config,
    "ExperimentOutput": lambda tmp_path: cmd_identify(_config(tmp_path)),
}


def _fields(record) -> list[str]:
    return list(inspect.signature(type(record)).parameters)


@pytest.mark.parametrize("name", BUILDERS)
def test_assigning_or_deleting_a_field_raises(tmp_path, name):
    record = BUILDERS[name](tmp_path)
    assert type(record).__name__ == name
    for field in _fields(record):
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_arguments_make_equal_records(tmp_path, name):
    first, second = BUILDERS[name](tmp_path), BUILDERS[name](tmp_path)
    assert first is not second
    assert first == second and not first != second
    if name != "ExperimentOutput":  # its metadata is a dict, so it has no hash
        assert hash(first) == hash(second)


def test_schemes_compare_by_kind_tilt_and_delta_alone():
    grown, fresh = BoundScheme("kl", 8, 0.05), BoundScheme("kl", 8, 0.05)
    threshold(grown, 1000)
    assert len(grown.threshold_table) != len(fresh.threshold_table)
    assert grown == fresh and hash(grown) == hash(fresh)
    assert {grown: "table"}[fresh] == "table"
    assert {(grown, 4): "leader"}[fresh, 4] == "leader"  # the leader scheme's cache key
    assert BoundScheme("kl", 8, 0.1).with_delta(0.05) == fresh
    for other in (BoundScheme("kl-prime", 8, 0.05), BoundScheme("kl", 16, 0.05),
                  BoundScheme("kl", 8, 0.025)):
        assert other != fresh


def test_records_survive_pickling(tmp_path):
    scheme = BoundScheme("kl", 8, 0.05)
    threshold(scheme, 100)
    records = [
        bernoulli_environment((0.7, 0.5, 0.3)),
        from_contest(_contest(tmp_path)),
        scheme,
        BUILDERS["RunRecord"](tmp_path),
        _config(tmp_path),
    ]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        with pytest.raises(AttributeError):
            setattr(copy, _fields(copy)[0], None)
    # a copy is rebuilt from its fields: the caches stay behind, and the
    # copy fills its own table with the same values
    copy = pickle.loads(pickle.dumps(scheme))
    assert len(copy.threshold_table) == 0 < len(scheme.threshold_table)
    assert threshold(copy, 100) == threshold(scheme, 100)
    assert threshold(copy, 5000) == threshold(BoundScheme("kl", 8, 0.05), 5000)


def test_records_pickle_as_their_class_and_field_values():
    # unpickling calls __init__, which sets each attribute through
    # object.__setattr__ and so keeps the instance's fast attribute reads
    assert Bernoulli(0.3).__reduce__() == (Bernoulli, (0.3,))
    assert BoundScheme("sg1", 4, 0.1).__reduce__() == (BoundScheme, ("sg1", 4, 0.1))
    env = bernoulli_environment((0.7, 0.5, 0.3))
    assert env.__reduce__() == (Environment, (env.arms,))
    copy = pickle.loads(pickle.dumps(env))
    assert copy == env and all(type(arm) is Bernoulli for arm in copy.arms)


def test_outputs_and_configs_build_by_keyword(tmp_path):
    out = ExperimentOutput(metadata={"seed": 1}, columns=("arm", "mean"), rows=((0, 0.5),))
    assert out == ExperimentOutput({"seed": 1}, ("arm", "mean"), ((0, 0.5),))
    config = _config(tmp_path)
    assert RunConfig(**{field: getattr(config, field) for field in _fields(config)}) == config
    assert (config.n, config.alpha) == (4, 1.0)
