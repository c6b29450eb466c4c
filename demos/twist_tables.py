"""Re-derive the full twist-count tables for characteristics 2 and 3.

For each ground field GF(p^n) with p in {2, 3} and n up to 4 this
recomputes the number of twist classes of a j = 0 curve and a j != 0
curve, their splitting degrees, and the independent census of j = 0
isomorphism classes, then checks everything against the expected
tables.  `verify_twist_tables` returns each comparison as a
{"name", "expected", "computed", "ok"} record, the shape of the
`twist_tables/...` items that `twistlab repro --json` prints.
"""

from twistlab import verify_twist_tables

failures = 0
for p in (2, 3):
    for n in range(1, 5):
        doc = verify_twist_tables(p, n)
        print(f"GF({p}^{n}):")
        for item in doc["items"]:
            mark = "ok  " if item["ok"] else "FAIL"
            print(f"  {mark} {item['name']}: expected {item['expected']}, "
                  f"computed {item['computed']}")
        failures += sum(1 for item in doc["items"] if not item["ok"])

print(f"\n{failures} failures" if failures else "\nall tables verified")
