"""Pattern matching on decoded values, the reference for `fs.matches`.

It reads structures only through `FS.get`, so it sees atoms as `str` and
value disjunctions as `frozenset`, whatever the payload format inside `fs`.
"""

from gramgrow.fs import FS, WILDCARD


def value_compatible(pval, dval, presence):
    if pval == WILDCARD:
        return True
    if isinstance(pval, str):
        if isinstance(dval, str):
            return pval == dval
        if isinstance(dval, frozenset):
            return pval in dval
        return dval is None  # unconstrained shared node
    if isinstance(pval, frozenset):
        if isinstance(dval, str):
            return dval in pval
        if isinstance(dval, frozenset):
            return bool(pval & dval)
        return dval is None
    if isinstance(pval, FS):
        if isinstance(dval, FS):
            return fs_matches(pval, dval, presence)
        return dval is None and not presence
    return True


def fs_matches(pfs, d, presence):
    """presence=True: every pattern feature must be present in d and
    compatible.  presence=False: mere unifiability (absent features allowed)."""
    for feat in pfs.root_features:
        dval = d.get(feat, "\0missing")
        if dval == "\0missing":
            if presence:
                return False
            continue
        if not value_compatible(pfs.get(feat), dval, presence):
            return False
    return True
