from antibidiag import errors


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


BASES = (errors.RejectedInput, errors.NumericalBreakdown, errors.UsageError)


def test_bases_carry_distinct_exit_statuses():
    assert [b.exit_code for b in BASES] == [1, 2, 3]


def test_every_error_derives_from_exactly_one_base():
    concrete = [c for c in _all_subclasses(errors.AntibidiagError) if c not in BASES]
    assert len(concrete) >= 20
    for cls in concrete:
        owners = [b for b in BASES if issubclass(cls, b)]
        assert len(owners) == 1, (cls.__name__, owners)
        assert cls.exit_code == owners[0].exit_code
