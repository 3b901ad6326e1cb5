"""Message digests (SHA-256) over canonically serialized objects.

The canonical encoding is the hot path: every group message, signature and
certificate digest passes through it.  A digest is a pure function of the
object's value, so it is computed once per value the simulation shares, not
once per receiver, while producing byte-identical digests to the original
implementation:

* the canonical transform walks dataclasses field-by-field instead of calling
  :func:`dataclasses.asdict` (which deep-copies the whole object graph),
  decides "is this a dataclass" once per class, and leaves key sorting to one
  module-level ``json.JSONEncoder(sort_keys=True, default=str)`` -- the
  encoder ``json.dumps`` would build afresh on every call;
* **by identity**: digests of deeply immutable payloads (frozen dataclasses,
  tuples, strings, ...) are memoised in a bounded LRU keyed by ``id`` --
  in-simulation payload objects are shared by reference across nodes, so
  re-digesting the same broadcast at every hop becomes a dictionary hit.  An
  object with a mutable interior (a broadcast carrying a ``dict``) enters
  this memo only through :func:`seal`, the owner's promise that it is never
  mutated again;
* **by value**: a signed statement -- a checkpoint, transition, chain-link or
  Dolev-Strong tuple -- is rebuilt by every replica that checks it, so its
  identity never repeats.  A tuple made only of exact ``str`` and ``int``
  items (or of tuples built the same way) is its own key in a second bounded
  LRU.  The key is type-exact: ``True``, ``1.0`` and ``str`` subclasses never
  enter it, because ``(1,) == (True,) == (1.0,)`` in Python while their
  encodings differ, and a value-keyed entry needs no ``id()``.

Both memos are caches, not trust: an evicted or cleared entry recomputes
the same digest, and :func:`audit_digest_memo` recomputes every live entry.

Set sorting uses an explicit fallback key so mixed-type sets cannot raise
``TypeError`` (sets of a single comparable type keep their historical order,
and therefore their historical digests).
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import asdict, fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Type alias for hex-encoded digests.
Digest = str

#: The one canonical encoder: ``_encode(x)`` is byte-identical to
#: ``json.dumps(x, sort_keys=True, default=str)``, without building an
#: encoder per call.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


def _set_sort_key(item: Any) -> Tuple[str, str]:
    """Deterministic ordering for canonicalised set items of mixed types."""
    return (item.__class__.__name__, _encode(item))


#: Per-class field names, or ``None`` for a class that is not a dataclass
#: (``is_dataclass`` and ``fields`` re-inspect the class on every call; both
#: answers are fixed per class).  Built from ``dataclasses.fields``, which
#: excludes InitVar/ClassVar pseudo-fields that have no instance attribute.
_field_names_cache: Dict[type, Optional[Tuple[str, ...]]] = {}


def _dataclass_field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """The field names of dataclass ``cls``; ``None`` if it is not one."""
    try:
        return _field_names_cache[cls]
    except KeyError:
        names = tuple(spec.name for spec in fields(cls)) if is_dataclass(cls) else None
        _field_names_cache[cls] = names
        return names


def _sort_set_items(items: list) -> list:
    try:
        items.sort()
    except TypeError:
        items.sort(key=_set_sort_key)
    return items


def _canonical(obj: Any) -> Any:
    """Convert ``obj`` into a JSON-serializable canonical form.

    Kept as the reference implementation (and for external callers); the
    digest fast path uses :func:`_canonical_fast`, which produces the same
    JSON under ``json.dumps(sort_keys=True, default=str)``.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__dc__": type(obj).__name__, **_canonical(asdict(obj))}
    if isinstance(obj, dict):
        return {
            str(key): _canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return _sort_set_items([_canonical(item) for item in obj])
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def _canonical_fast(obj: Any, in_dataclass: bool) -> Any:
    """Cheap canonical transform, JSON-equivalent to :func:`_canonical`.

    ``in_dataclass`` mirrors ``asdict`` semantics: a dataclass nested anywhere
    beneath another dataclass is flattened to a plain field dict without the
    ``__dc__`` marker, exactly as ``asdict`` did in the reference encoding.
    Dict keys are stringified but not pre-sorted — ``json.dumps(sort_keys=True)``
    performs the one and only sort.
    """
    cls = obj.__class__
    if cls is str or cls is int or cls is float or cls is bool or obj is None:
        return obj
    names = _dataclass_field_names(cls)
    if names is not None:
        out = {name: _canonical_fast(getattr(obj, name), True) for name in names}
        if not in_dataclass:
            out["__dc__"] = cls.__name__
        return out
    if isinstance(obj, dict):
        return {str(key): _canonical_fast(value, in_dataclass) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical_fast(item, in_dataclass) for item in obj]
    if isinstance(obj, (set, frozenset)):
        # ``asdict`` never recursed into sets (it deep-copied them), so set
        # elements were always canonicalised by the reference path *with*
        # their ``__dc__`` markers — even beneath a dataclass.  Reset the
        # flag to preserve that encoding exactly.
        return _sort_set_items([_canonical_fast(item, False) for item in obj])
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def canonical_encode(obj: Any) -> str:
    """Return the canonical JSON encoding of ``obj`` (the pre-image of digests)."""
    return _encode(_canonical_fast(obj, False))


def _digest_encoded(encoded: str) -> Digest:
    """SHA-256 hex digest of a canonical encoding."""
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- memo
#
# Identity-keyed LRU for digests of immutable payloads.  Keys are ``id(obj)``
# and each entry keeps a strong reference to the object, which guarantees the
# id cannot be recycled while the entry is alive.  An object enters either
# because its value cannot change under an existing reference (the
# :func:`_memoizable` walk) or because its owner sealed it (:func:`seal`).
#
# Value-keyed LRU for statement tuples (:func:`_value_keyed`): the tuple is
# the key, so equal statements built by different replicas share an entry.

_MEMO_LIMIT = 8192
_memo: Dict[int, Tuple[Any, str]] = {}
_value_memo: Dict[tuple, Digest] = {}
_MEMO_SCALAR_TYPES = (str, bytes, int, float, complex, type(None))


def _is_memoised(obj: Any) -> bool:
    """Whether ``obj`` itself (not another object at a recycled id) has a live entry."""
    entry = _memo.get(id(obj))  # atumlint: allow[ATL008] identity-LRU probe, guarded by `is obj`; never ordered or serialized
    return entry is not None and entry[0] is obj


def _memoizable(obj: Any) -> bool:
    """Whether ``obj`` is *deeply* immutable and safe to memoise by identity.

    The outer type being immutable is not enough: a tuple or frozen dataclass
    can hold a mutable dict/list whose mutation would change the digest while
    the identity stays the same.  An object with a live memo entry — sealed,
    or proven immutable by an earlier walk — is an immutable leaf, which is
    what makes wrappers around a sealed broadcast (``Operation(body=message)``,
    signed statements) memoisable.  The walk runs once per memo store (hits
    never reach it), so its cost is amortised away.
    """
    if isinstance(obj, _MEMO_SCALAR_TYPES) or _is_memoised(obj):
        return True
    if isinstance(obj, (tuple, frozenset)):
        return all(_memoizable(item) for item in obj)
    params = getattr(obj.__class__, "__dataclass_params__", None)
    if params is not None and params.frozen:
        return all(
            _memoizable(getattr(obj, name))
            for name in _dataclass_field_names(obj.__class__)
        )
    return False


def _value_keyed(obj: tuple) -> bool:
    """Whether tuple ``obj`` holds only exact ``str``/``int`` items and such tuples.

    Exact types only: ``bool``, ``float`` and subclasses compare equal to
    values whose encoding differs, so admitting them would let ``(True,)``
    be served the digest of ``(1,)``.  Such a tuple is also its own canonical
    form: it encodes as the JSON array of its items.
    """
    for item in obj:
        cls = item.__class__
        if not (cls is str or cls is int or (cls is tuple and _value_keyed(item))):
            return False
    return True


def _memo_store(obj: Any, result: Digest) -> None:
    if len(_memo) >= _MEMO_LIMIT:
        # Evict the oldest entry (dicts preserve insertion order).
        _memo.pop(next(iter(_memo)))
    _memo[id(obj)] = (obj, result)  # atumlint: allow[ATL008] identity-LRU memo key; cache only, never protocol state


def clear_digest_memo() -> None:
    """Drop all memoised digests, seals and value-keyed statements included."""
    _memo.clear()
    _value_memo.clear()


def audit_digest_memo() -> List[Tuple[Any, Digest, Digest]]:
    """Recompute every live memo entry; return ``(obj, memoised, actual)`` mismatches.

    A non-empty result means an object was mutated after it was sealed (or
    after the immutability walk admitted it) and the memo would have served
    a stale digest, or that a value-keyed entry was stored under the wrong
    key.  The test suite asserts it is empty after every test.
    """
    entries = list(_memo.values()) + list(_value_memo.items())
    return [
        (obj, memoised, actual)
        for obj, memoised in entries
        if (actual := _digest_encoded(canonical_encode(obj))) != memoised
    ]


def digest_object(obj: Any) -> Digest:
    """Return the SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    key = id(obj)  # atumlint: allow[ATL008] identity-LRU memo key, guarded by `is obj`; never ordered or serialized
    entry = _memo.get(key)
    if entry is not None and entry[0] is obj:
        # Refresh recency so hot shared payloads are not evicted first.
        del _memo[key]
        _memo[key] = entry
        return entry[1]
    if obj.__class__ is tuple and _value_keyed(obj):
        result = _value_memo.pop(obj, None)
        if result is None:
            result = _digest_encoded(_encode(obj))
            if len(_value_memo) >= _MEMO_LIMIT:
                _value_memo.pop(next(iter(_value_memo)))
        # Re-inserted last on a hit too: the oldest entry is evicted first.
        _value_memo[obj] = result
        return result
    result = _digest_encoded(_encode(_canonical_fast(obj, False)))
    # The deep-immutability walk runs only on the store path; memo hits
    # return above on a single dict probe.
    if _memoizable(obj):
        _memo_store(obj, result)
    return result


def seal(obj: Any) -> Digest:
    """Digest ``obj`` once and memoise it unconditionally; returns the digest.

    The caller promises that ``obj`` — including any mutable interior — is
    never mutated again (the ATL007 contract for anything handed to
    ``send*``/``broadcast``).  Every later :func:`digest_object` of the same
    object, or of an immutable wrapper around it, is then a memo hit.  A seal
    is only a cache entry: once evicted or cleared the next call recomputes,
    with the same result.
    """
    result = digest_object(obj)
    if not _is_memoised(obj):
        _memo_store(obj, result)
    return result


__all__ = [
    "Digest",
    "audit_digest_memo",
    "canonical_encode",
    "clear_digest_memo",
    "digest_object",
    "seal",
]
