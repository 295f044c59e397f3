"""Content-keyed store of the derived objects the theta route needs.

Two kinds of object are kept, both keyed by a content hash of the ring and
the module presentation:

* the certified finite Koszul resolution (``KoszulComplex``) of a module;
* the presentation of Ext_R(M, k) over the skew chi-ring S
  (``ThetaModule``); it does not depend on t, which the support reads off,
  so its key holds no t.  A theta entry written when the key held t has
  another file name: it is never read, and the module counts as a miss.

A store keeps an in-memory layer and, when it has a directory, a disk
layer of JSON files written atomically, each named by the SHA-256 digest of
its key and checked against the SHA-256 digest of its payload.  The digests
come from the interpreter's builtin SHA-256 module, not ``hashlib``, so no
job loads OpenSSL; they are the same digests ``hashlib`` gives.  Each
resolution is certified once (``KoszulComplex.certify``: strict structure
identities and exactness), where it is made: when it is built, or when it
is read from disk.  A file that fails its hash or that certificate is
counted as corrupt and its object rebuilt; every later user of a
resolution reads the kept certificate at no cost.  ``current()`` is the
store in use: ``using(store)`` selects one for a block, and outside any
such block a process-wide store without a directory serves every caller,
so objects are built once per process.

Both kinds are made by calling ``resolve.finite_koszul_resolution`` and
``operators.ext_over_theta`` through their module attributes, so anything
that wraps those attributes sees every build.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os

from . import operators, resolve
from .resolve import KoszulComplex, ModulePresentation
from .scalars import CycScalar

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["CACHE_VERSION", "ResolutionCache", "current", "using"]

CACHE_VERSION = 1


def _sha256(text):
    return sha256(text.encode()).hexdigest()


def _certified_resolution(doc):
    """The resolution stored in doc, refused (as corrupt) unless it passes
    ``KoszulComplex.certify``, the certificate a built one passed."""
    cx = KoszulComplex.from_json(doc)
    errors = cx.certify()
    if errors:
        raise ValueError(f"stored resolution fails its certificate: "
                         f"{errors[:3]}")
    return cx


def _theta_to_json(tm):
    """gen_degs plus every column as [exps, comp, numerators, denominator]
    terms, in the column's own term order."""
    return {
        "gen_degs": list(tm.gen_degs),
        "columns": [[[list(exps), comp, list(c.n), c.d]
                     for (exps, comp), c in col.items()]
                    for col in tm.columns],
    }


def _theta_from_json(spec, doc):
    m = spec.m
    columns = [{(tuple(exps), comp): CycScalar(m, n) / d
                for exps, comp, n, d in col}
               for col in doc["columns"]]
    return operators.ThetaModule(spec, doc["gen_degs"], columns)


class ResolutionCache:
    """Store of finite Koszul resolutions and theta modules.

    ``hits`` counts objects loaded from disk, ``misses`` objects built and
    ``corrupt`` disk entries rejected on load; reuse from memory is not
    counted.  An object this instance built and wrote to disk is served by
    reading it back the first time it is reused, so the disk round trip is
    what a later run will get; from then on it comes from memory.
    """

    def __init__(self, directory):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._memory = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _key(self, module: ModulePresentation, **extra):
        payload = json.dumps(
            {"v": CACHE_VERSION, **module.cache_key_data(), **extra},
            sort_keys=True)
        return _sha256(payload)

    def get_or_build(self, module: ModulePresentation) -> KoszulComplex:
        """The certified finite Koszul resolution of module."""
        return self._get(
            "res", self._key(module),
            lambda: resolve.finite_koszul_resolution(module),
            KoszulComplex.to_json, _certified_resolution)

    def theta_module(self, module: ModulePresentation):
        """Ext_R(module, k) over the chi-ring S."""
        return self._get(
            "theta", self._key(module, kind="theta"),
            lambda: operators.ext_over_theta(self.get_or_build(module)),
            _theta_to_json, lambda doc: _theta_from_json(module.spec, doc))

    def _get(self, prefix, key, build, dump, load):
        obj = self._memory.get(key)
        if obj is not None:
            return obj
        path = None
        if self.directory:
            path = os.path.join(self.directory, f"{prefix}-{key}.json")
            obj = self._read(path, key, load)
        if obj is None:
            self.misses += 1
            obj = build()
            if path:
                # not kept in memory: its first reuse reads the file back
                self._write(path, key, dump(obj))
                return obj
        self._memory[key] = obj
        return obj

    def _read(self, path, key, load):
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                doc = json.load(handle)
            text = json.dumps(doc["payload"], sort_keys=True)
            if doc.get("sha256") == _sha256(text) and doc.get("key") == key:
                obj = load(doc["payload"])
                self.hits += 1
                return obj
        except (AttributeError, KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError):
            pass
        self.corrupt += 1
        return None

    @staticmethod
    def _write(path, key, payload):
        text = json.dumps(payload, sort_keys=True)
        doc = {"key": key, "sha256": _sha256(text), "payload": payload}
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle, sort_keys=True)
        os.replace(tmp, path)

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt}


_CURRENT = contextvars.ContextVar("skewci_store",
                                  default=ResolutionCache(None))


def current() -> ResolutionCache:
    """The store in use: the innermost ``using`` block's, else the
    process-wide one."""
    return _CURRENT.get()


@contextlib.contextmanager
def using(store: ResolutionCache):
    """Serve every store lookup inside the block from ``store``."""
    token = _CURRENT.set(store)
    try:
        yield store
    finally:
        _CURRENT.reset(token)
