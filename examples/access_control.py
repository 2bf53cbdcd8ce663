#!/usr/bin/env python3
"""Access control with views — exercising the reproduction's extensions.

A personnel database where:

* the public directory is a *pure* view (enforced with
  ``Session(pure_views=True)``, the paper's Section 3.1 optional check);
* class schemas are declared and checked via type ascription;
* an employee can be hidden from the directory with a *blocking delete*
  (the paper's Section 4.1 alternative delete semantics) without touching
  the HR class, and un-hidden again;
* a真 cascading delete removes a person from the whole hierarchy.
"""

from repro import Session
from repro.classes.operations import blocking_class_source, cascade_delete
from repro.analysis.effects import ImpureViewError

NAMES = "fn S => map(fn o => query(fn v => v.Name, o), S)"


def main() -> None:
    s = Session(pure_views=True)

    print("== HR data, schema-checked ==")
    s.exec('''
        val mona = IDView([Name = "Mona", Level = 3, Salary := 7000])
        val nils = IDView([Name = "Nils", Level = 1, Salary := 4000])
        val HR = (class {mona, nils} end
                  : class([Name = string, Level = int, Salary := int]))
    ''')
    print("HR :", s.typeof_str("HR"))

    print("\n== a pure public directory (Salary hidden) ==")
    s.exec(blocking_class_source(
        "Directory", "HR", "fn x => [Name = x.Name, Level = x.Level]"))
    print("Directory:", s.eval_py(f"c-query({NAMES}, Directory)"))

    print("\n== an impure 'view' is rejected statically ==")
    try:
        s.eval("(mona as fn x => let u = update(x, Salary, 0) in x end)")
        raise AssertionError("impure view was not rejected")
    except ImpureViewError as exc:
        print("rejected:", str(exc)[:60], "...")

    print("\n== blocking delete: hide Mona from the directory only ==")
    # the exclusion class holds source-typed objects; blocking is by objeq
    s.eval("insert(mona, Directory_blocked)")
    print("Directory:", s.eval_py(f"c-query({NAMES}, Directory)"))
    print("HR       :", s.eval_py(f"c-query({NAMES}, HR)"))
    assert s.eval_py(f"c-query({NAMES}, Directory)") == ["Nils"]
    assert s.eval_py(f"c-query({NAMES}, HR)") == ["Mona", "Nils"]

    print("\n== unblock ==")
    s.eval("delete(mona, Directory_blocked)")
    assert s.eval_py(f"c-query({NAMES}, Directory)") == ["Mona", "Nils"]

    print("\n== cascading delete: remove Nils everywhere ==")
    removed = cascade_delete(
        s.machine, s.runtime_env.lookup("Directory"),
        s.runtime_env.lookup("nils"))
    print(f"own extents modified: {removed}")
    print("Directory:", s.eval_py(f"c-query({NAMES}, Directory)"))
    print("HR       :", s.eval_py(f"c-query({NAMES}, HR)"))
    assert s.eval_py(f"c-query({NAMES}, HR)") == ["Mona"]

    print("\nAccess-control scenario complete.")


if __name__ == "__main__":
    main()
