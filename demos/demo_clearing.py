"""Tour of the clearing solvers on small instances.

Builds a toy instance, compares the randomized pipeline against the exact
search, and shows the minimum-plough and free-placement variants on the
zigzag family.
"""

from snowteam import (
    SolveParams,
    gen_fig3,
    make_instance,
    normalize_to_tree_like,
    serialize_instance,
    solve_min_st,
    solve_st,
    solve_st_exact,
    solve_stu,
    solve_variant_exact,
    transitive_closure,
    walks_from_lists,
)

params = SolveParams(seed=1)

print("== a 3-vertex instance: one plough at 0, facilities {0, 2} ==")
toy = make_instance(3, [(0, 1), (1, 2)], facilities={0, 2}, ploughs={0: 1})
print(serialize_instance(toy))
answer, witness = solve_st_exact(toy)
print("exact search:", "YES" if answer else "NO")
print("witness walks:", [list(w.vertices) for w in witness.walks])
report = solve_st(toy, params)
print(f"randomized pipeline: {'YES' if report.answer else 'NO'} "
      f"({report.detections_run} detections, bound {report.failure_bound:.1e})")

print("\n== the same arcs reversed at the base: nothing can move ==")
stuck = make_instance(3, [(1, 0), (1, 2)], facilities={0, 2}, ploughs={0: 1})
print("exact search:", "YES" if solve_st_exact(stuck)[0] else "NO")
print("pipeline:   ", "YES" if solve_st(stuck, params).answer else "NO")

print("\n== normalizing a wasteful witness on the transitive closure ==")
closed = transitive_closure(toy)
wasteful = walks_from_lists([[0, 1, 2]])  # detours through the non-facility 1
tidy = normalize_to_tree_like(closed, wasteful)
print("before:", [list(w.vertices) for w in wasteful.walks])
print("after: ", [list(w.vertices) for w in tidy.walks])

print("\n== zigzag family: two facilities, n-1 ploughs required ==")
for n in (3, 5):
    zig = gen_fig3(n)
    exact_min = solve_variant_exact(zig, "min-st")
    pipe_min = solve_min_st(zig, params).optimum
    print(f"n={n}: exact minimum {exact_min}, pipeline minimum {pipe_min}")

zig5 = gen_fig3(5)
for k in (4, 3):
    got = solve_stu(zig5, k, params).answer
    print(f"free placement of {k} ploughs on n=5: {'YES' if got else 'NO'}")
