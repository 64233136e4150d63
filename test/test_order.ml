(* Pearce-Kelly online topological order ([Topo_order]), cross-checked
   against naive reachability on random arc streams. *)

module O = Dct_graph.Topo_order
module G = Dct_graph.Digraph
module T = Dct_graph.Traversal

let check = Alcotest.(check bool)

(* Test, then insert — the way every scheduler drives the order. *)
let add_arc o ~src ~dst =
  if O.would_cycle o ~src ~dst then `Cycle
  else begin
    O.add_arc o ~src ~dst;
    `Ok
  end

let test_accepts_dag () =
  let o = O.create () in
  Alcotest.(check string) "a" "ok" (match add_arc o ~src:1 ~dst:2 with `Ok -> "ok" | `Cycle -> "cycle");
  check "b" true (add_arc o ~src:2 ~dst:3 = `Ok);
  check "c" true (add_arc o ~src:1 ~dst:3 = `Ok);
  check "invariant" true (O.check_invariant o)

let test_rejects_cycle () =
  let o = O.create () in
  ignore (add_arc o ~src:1 ~dst:2);
  ignore (add_arc o ~src:2 ~dst:3);
  check "closing arc refused" true (add_arc o ~src:3 ~dst:1 = `Cycle);
  (* Structure unchanged: the arc was not inserted. *)
  check "arc absent" false (G.mem_arc (O.graph o) ~src:3 ~dst:1);
  check "invariant" true (O.check_invariant o);
  check "self arc refused" true (add_arc o ~src:5 ~dst:5 = `Cycle)

let test_reorder_path () =
  (* Insert arcs in an order that forces reordering: 2->3 first, then
     1->2 with 1 created after 3. *)
  let o = O.create () in
  O.add_node o 3;
  O.add_node o 2;
  O.add_node o 1;
  check "2->3" true (add_arc o ~src:2 ~dst:3 = `Ok);
  check "1->2" true (add_arc o ~src:1 ~dst:2 = `Ok);
  check "invariant" true (O.check_invariant o);
  check "rank order" true (O.rank o 1 < O.rank o 2 && O.rank o 2 < O.rank o 3)

let test_remove_node () =
  let chain () =
    let o = O.create () in
    ignore (add_arc o ~src:1 ~dst:2);
    ignore (add_arc o ~src:2 ~dst:3);
    o
  in
  let o = chain () in
  O.remove_node o `Exact 2;
  check "exact: 3 -> 1 now fine" true (add_arc o ~src:3 ~dst:1 = `Ok);
  check "exact: invariant" true (O.check_invariant o);
  let o = chain () in
  O.remove_node o `Bypass 2;
  check "bypass: 1 -> 3 kept" true (G.mem_arc (O.graph o) ~src:1 ~dst:3);
  check "bypass: 3 -> 1 still a cycle" true (add_arc o ~src:3 ~dst:1 = `Cycle);
  check "bypass: invariant" true (O.check_invariant o)

let test_random_against_naive () =
  let rng = Dct_workload.Prng.create ~seed:7 in
  for _trial = 1 to 50 do
    let o = O.create () in
    let reference = G.create () in
    for _ = 1 to 120 do
      let src = Dct_workload.Prng.int rng 25 in
      let dst = Dct_workload.Prng.int rng 25 in
      let naive_cycle =
        src = dst
        || (G.mem_node reference src && G.mem_node reference dst
           && T.has_path reference ~src:dst ~dst:src)
      in
      match add_arc o ~src ~dst with
      | `Ok ->
          check "naive agrees: acyclic" false naive_cycle;
          G.add_arc reference ~src ~dst
      | `Cycle -> check "naive agrees: cycle" true naive_cycle
    done;
    check "invariant holds" true (O.check_invariant o);
    check "same graph as reference" true (G.equal (O.graph o) reference)
  done

let test_would_cycle_pure () =
  let o = O.create () in
  ignore (add_arc o ~src:1 ~dst:2);
  check "would cycle" true (O.would_cycle o ~src:2 ~dst:1);
  check "pure: arc not added" false (G.mem_arc (O.graph o) ~src:2 ~dst:1);
  check "no cycle the other way" false (O.would_cycle o ~src:1 ~dst:2)

let () =
  Alcotest.run "order"
    [
      ( "pearce-kelly",
        [
          Alcotest.test_case "accepts DAG arcs" `Quick test_accepts_dag;
          Alcotest.test_case "rejects cycles" `Quick test_rejects_cycle;
          Alcotest.test_case "reorders region" `Quick test_reorder_path;
          Alcotest.test_case "node removal" `Quick test_remove_node;
          Alcotest.test_case "random stream vs naive" `Slow test_random_against_naive;
          Alcotest.test_case "would_cycle is pure" `Quick test_would_cycle_pure;
        ] );
    ]
