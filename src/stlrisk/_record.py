"""``Record``, the base of the package's immutable value classes."""


class Record:
    """Fields set once, positionally or by keyword: a subclass's fields are
    its annotations that are not ``ClassVar``, after those it inherits, and a
    class attribute is a field's default.  ``__post_init__`` may check them
    and replace values in ``vars(self)``, or add values there that are not
    fields, which ``==``, ``hash`` and ``repr`` ignore.  Records of one type
    with equal fields are equal, unless the class statement says ``eq=False``."""

    _fields = __match_args__ = ()

    def __init_subclass__(cls, eq: bool = True):
        own = (name for name, kind in cls.__annotations__.items() if not str(kind).startswith(("ClassVar", "typing.ClassVar")))
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls, given = type(self), dict(zip(fields, args))
            bad = [n for n in kwargs if n in given or n not in fields]  # repeated or unknown
            given.update(kwargs)
            bad += [n for n in fields if n not in given and not hasattr(cls, n)]  # missing
            if len(args) > len(fields) or bad:
                raise TypeError(f"{cls.__name__} takes fields {fields}, got {len(args)} positional values; repeated, unknown or missing: {bad}")
            args = [given[n] if n in given else getattr(cls, n) for n in fields]
        # One store per field: an update of vars(self) would move the values
        # into a dict, and reads of formula nodes, the engine's hot path, slow.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__
