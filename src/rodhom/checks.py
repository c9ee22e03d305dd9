"""Value predicates shared by the constructors that check their own inputs."""

import numbers


def is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_integer(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_list_of(v, least, ok):
    return isinstance(v, (list, tuple)) and len(v) >= least and all(map(ok, v))


def is_increasing(v):
    return all(a < b for a, b in zip(v, v[1:]))


def is_distinct(v):
    return len(set(v)) == len(v)


POSITIVE = ("a positive number", lambda v: is_number(v) and v > 0)


def require(name, value, want, ok):
    """value if ok(value), else ValueError "<name> must be <want>, not <value!r>"."""
    if not ok(value):
        raise ValueError("%s must be %s, not %r" % (name, want, value))
    return value
