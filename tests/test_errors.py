import pickle

import pytest

from mvcreg import errors

#: constructor arguments of every error type, positional and keyword
EXAMPLES = {
    errors.MvcregError: (("something failed",), {}),
    errors.SingularGramian: ((1e-12, 3.5e9, 1e8), {}),
    errors.SingularNormalMatrix: ((1, 2.5e13, 1e12), {}),
    errors.SingularD: ((0,), {"detail": "zero pivot"}),
    errors.DataFormatError: (("row 3: expected 5 fields, got 4",), {}),
    errors.ConfigError: (("components[0].error_sd", "must be positive"), {}),
    errors.ExcessiveFailures: ((40, 21, 30), {}),
    errors.WorkerLost: (("a worker process ended abruptly",), {}),
}


def all_error_types(cls=errors.MvcregError):
    found = [cls]
    for sub in cls.__subclasses__():
        found += all_error_types(sub)
    return found


def test_every_error_type_has_an_example():
    assert set(all_error_types()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # an error raised in a study worker reaches the parent as a pickle
    args, kwargs = EXAMPLES[cls]
    exc = cls(*args, **kwargs)
    exc.where = "raised in a worker"  # state set after construction travels too
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert back.code == exc.code
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
    assert back.where == "raised in a worker"


#: the exit status each error type stops a command with, as the CLI documents it
EXIT_CODES = {
    errors.MvcregError: 4,
    errors.SingularGramian: 3,
    errors.SingularNormalMatrix: 4,
    errors.SingularD: 4,
    errors.DataFormatError: 2,
    errors.ConfigError: 2,
    errors.ExcessiveFailures: 4,
    errors.WorkerLost: 1,
}


def test_every_error_type_has_its_exit_code():
    assert {cls: cls.exit_code for cls in all_error_types()} == EXIT_CODES
