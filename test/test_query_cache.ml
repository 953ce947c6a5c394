(* The epoch-validated query-result cache: the LRU container itself,
   its Query_exec integration (hit/miss/invalidation counters against
   ground truth), and a seeded property sweep asserting the cached
   entry points answer identically to cold execution across randomized
   interleavings of queries and table mutations. *)

module R = Relstore
module QC = Relstore.Query_cache
module QE = Relstore.Query_exec
module Prng = Provkit_util.Prng

let kv_schema () =
  R.Schema.make ~name:"kv"
    [ R.Column.make "k" R.Value.Tint; R.Column.make "v" R.Value.Ttext ]

let kv_table ?(index = false) () =
  let t = R.Table.create (kv_schema ()) in
  if index then R.Table.add_index t ~name:"by_k" ~columns:[ "k" ];
  t

let kv k v = [ ("k", R.Value.Int k); ("v", R.Value.Text v) ]

(* The Query_exec cache is process-wide state: every test restores the
   defaults so suites stay order-independent. *)
let with_clean_cache f =
  let reset () =
    QE.set_cache_enabled true;
    QE.set_cache_capacity 512;
    QE.clear_cache ()
  in
  reset ();
  Fun.protect ~finally:reset f

let with_metrics_on f =
  let was = Provkit_obs.Metrics.enabled () in
  Provkit_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Provkit_obs.Metrics.set_enabled was) f

(* --- the LRU container --- *)

let test_lru_hit_stale_absent () =
  let c = QC.create ~capacity:4 () in
  ignore (QC.put c ~key:"a" ~epoch:7 (QC.Count 3));
  (match QC.find c ~key:"a" ~epoch:7 with
  | QC.Hit (QC.Count 3) -> ()
  | _ -> Alcotest.fail "expected a hit at the stored epoch");
  (match QC.find c ~key:"a" ~epoch:8 with
  | QC.Stale -> ()
  | _ -> Alcotest.fail "a moved epoch must report stale");
  (match QC.find c ~key:"a" ~epoch:8 with
  | QC.Absent -> ()
  | _ -> Alcotest.fail "a stale entry must have been dropped");
  Alcotest.(check int) "cache empty again" 0 (QC.length c)

let test_lru_eviction_order () =
  let c = QC.create ~capacity:2 () in
  ignore (QC.put c ~key:"a" ~epoch:0 (QC.Count 1));
  ignore (QC.put c ~key:"b" ~epoch:0 (QC.Count 2));
  (* Touch [a]: it becomes most-recent, so [b] is the LRU victim. *)
  (match QC.find c ~key:"a" ~epoch:0 with
  | QC.Hit _ -> ()
  | _ -> Alcotest.fail "a expected");
  Alcotest.(check int) "put over capacity evicts one" 1
    (QC.put c ~key:"c" ~epoch:0 (QC.Count 3));
  (match QC.find c ~key:"b" ~epoch:0 with
  | QC.Absent -> ()
  | _ -> Alcotest.fail "the untouched entry must be the victim");
  (match (QC.find c ~key:"a" ~epoch:0, QC.find c ~key:"c" ~epoch:0) with
  | QC.Hit _, QC.Hit _ -> ()
  | _ -> Alcotest.fail "touched and fresh entries survive")

let test_lru_capacity () =
  let c = QC.create ~capacity:3 () in
  for i = 1 to 10 do
    ignore (QC.put c ~key:(string_of_int i) ~epoch:0 (QC.Count i))
  done;
  Alcotest.(check int) "bounded at capacity" 3 (QC.length c);
  QC.set_capacity c 1;
  Alcotest.(check int) "shrinking evicts immediately" 1 (QC.length c);
  (match QC.find c ~key:"10" ~epoch:0 with
  | QC.Hit _ -> ()
  | _ -> Alcotest.fail "the hottest entry survives the shrink");
  QC.set_capacity c 0;
  ignore (QC.put c ~key:"x" ~epoch:0 (QC.Count 0));
  Alcotest.(check int) "capacity 0 stores nothing" 0 (QC.length c)

(* --- Query_exec integration --- *)

let counter name () = Provkit_obs.Metrics.counter_value name

let test_select_hit_miss_invalidate_counters () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let t = kv_table () in
  for i = 0 to 9 do
    ignore (R.Table.insert_fields t (kv (i mod 3) (Printf.sprintf "row%d" i)))
  done;
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let misses = counter Provkit_obs.Names.query_cache_misses in
  let invalidations = counter Provkit_obs.Names.query_cache_invalidations in
  let h0, m0, i0 = (hits (), misses (), invalidations ()) in
  let p = R.Predicate.Eq ("k", R.Value.Int 1) in
  let cold = QE.select ~where:p t in
  Alcotest.(check int) "first run misses" (m0 + 1) (misses ());
  let warm = QE.select ~where:p t in
  Alcotest.(check int) "second run hits" (h0 + 1) (hits ());
  Alcotest.(check bool) "hit returns the identical result" true (warm = cold);
  (* Any table mutation makes the entry stale on its next lookup. *)
  ignore (R.Table.insert_fields t (kv 1 "fresh"));
  let after = QE.select ~where:p t in
  Alcotest.(check int) "mutation invalidates" (i0 + 1) (invalidations ());
  Alcotest.(check int) "stale lookup re-runs cold" (m0 + 2) (misses ());
  Alcotest.(check int) "the new row is visible" (List.length cold + 1) (List.length after);
  let again = QE.select ~where:p t in
  Alcotest.(check int) "refreshed entry hits again" (h0 + 2) (hits ());
  Alcotest.(check bool) "and agrees with the cold rerun" true (again = after)

let test_custom_predicate_never_cached () =
  with_clean_cache @@ fun () ->
  let t = kv_table () in
  for i = 0 to 5 do
    ignore (R.Table.insert_fields t (kv i "x"))
  done;
  let p =
    R.Predicate.Custom ("odd_k", fun schema row -> R.Row.int schema row "k" mod 2 = 1)
  in
  let r1 = QE.select ~where:p t in
  Alcotest.(check int) "closure predicates store nothing" 0 (QE.cache_length ());
  let r2 = QE.select ~where:p t in
  Alcotest.(check bool) "cold reruns agree" true (r1 = r2);
  Alcotest.(check int) "three odd keys" 3 (List.length r1)

let test_cache_disabled_bypasses () =
  with_clean_cache @@ fun () ->
  let t = kv_table () in
  ignore (R.Table.insert_fields t (kv 1 "a"));
  QE.set_cache_enabled false;
  ignore (QE.select t);
  Alcotest.(check int) "disabled cache stores nothing" 0 (QE.cache_length ());
  QE.set_cache_enabled true;
  ignore (QE.select t);
  Alcotest.(check int) "re-enabled cache stores again" 1 (QE.cache_length ())

let test_eviction_bound_via_query_exec () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  QE.set_cache_capacity 4;
  let t = kv_table () in
  for i = 0 to 29 do
    ignore (R.Table.insert_fields t (kv i "x"))
  done;
  let evictions = counter Provkit_obs.Names.query_cache_evictions in
  let e0 = evictions () in
  (* 20 distinct keys (by limit) through a 4-entry cache. *)
  for lim = 1 to 20 do
    ignore (QE.select ~limit:lim t)
  done;
  Alcotest.(check int) "live entries bounded by capacity" 4 (QE.cache_length ());
  Alcotest.(check int) "the overflow was evicted, and counted" (e0 + 16) (evictions ())

(* --- the property sweep: cached ≡ cold --- *)

let test_property_cached_equals_cold () =
  with_clean_cache @@ fun () ->
  let rng = Test_seed.prng ~salt:91 in
  let t = kv_table ~index:true () in
  let live = ref [] in
  let vals = [| "ant"; "bee"; "cat"; "dog"; "eel" |] in
  let random_pred () =
    match Prng.int rng 6 with
    | 0 -> R.Predicate.True
    | 1 -> R.Predicate.Eq ("k", R.Value.Int (Prng.int rng 8))
    | 2 -> R.Predicate.Cmp (R.Predicate.Ge, "k", R.Value.Int (Prng.int rng 8))
    | 3 ->
      R.Predicate.Between
        ("k", R.Value.Int (Prng.int rng 4), R.Value.Int (4 + Prng.int rng 4))
    | 4 -> R.Predicate.Like ("v", String.sub (Prng.pick rng vals) 0 2)
    | _ ->
      R.Predicate.Or
        [
          R.Predicate.Eq ("k", R.Value.Int (Prng.int rng 8));
          R.Predicate.Eq ("v", R.Value.Text (Prng.pick rng vals));
        ]
  in
  let random_order () =
    match Prng.int rng 3 with
    | 0 -> None
    | 1 -> Some [ QE.Asc "k" ]
    | _ -> Some [ QE.Desc "v"; QE.Asc "k" ]
  in
  let pick_live () = List.nth !live (Prng.int rng (List.length !live)) in
  (* The profiling sink must not change what a query does: same result
     and statistics as the cold run, and a profile root that counts the
     result's rows. *)
  let agree op step (cold, (cs : QE.exec_stats), ()) (profiled, (ps : QE.exec_stats), p) ~rows =
    if profiled <> cold then Alcotest.failf "profiled %s diverged at step %d" op step;
    if
      ps.QE.plan <> cs.QE.plan
      || ps.QE.rows_scanned <> cs.QE.rows_scanned
      || ps.QE.rows_returned <> cs.QE.rows_returned
    then Alcotest.failf "profiled %s stats diverged at step %d" op step;
    if p.QE.rows_out <> rows then
      Alcotest.failf "profiled %s root rows_out %d, result has %d, at step %d" op p.QE.rows_out
        rows step
  in
  let queries = ref 0 in
  for step = 1 to 600 do
    match Prng.int rng 10 with
    | 0 | 1 ->
      let id = R.Table.insert_fields t (kv (Prng.int rng 8) (Prng.pick rng vals)) in
      live := id :: !live
    | 2 when !live <> [] ->
      R.Table.update_field t (pick_live ()) "k" (R.Value.Int (Prng.int rng 8))
    | 3 when !live <> [] ->
      let id = pick_live () in
      R.Table.delete t id;
      live := List.filter (fun x -> x <> id) !live
    | _ -> begin
      incr queries;
      let where = random_pred () in
      match Prng.int rng 3 with
      | 0 ->
        let order_by = random_order () in
        let limit = if Prng.int rng 2 = 0 then None else Some (Prng.int rng 6) in
        let cached = QE.select ?order_by ~where ?limit t in
        let ((cold, _, ()) as run) = QE.select_observed QE.Null ?order_by ~where ?limit t in
        if cached <> cold then Alcotest.failf "select diverged at step %d" step;
        agree "select" step run
          (QE.select_observed QE.Profiling ?order_by ~where ?limit t)
          ~rows:(List.length cold)
      | 1 ->
        let cached = QE.count ~where t in
        let ((cold, _, ()) as run) = QE.count_observed QE.Null ~where t in
        if cached <> cold then Alcotest.failf "count diverged at step %d" step;
        agree "count" step run (QE.count_observed QE.Profiling ~where t) ~rows:1
      | _ ->
        let by = if Prng.int rng 2 = 0 then "k" else "v" in
        let cached = QE.group_count ~by ~where t in
        let ((cold, _, ()) as run) = QE.group_count_observed QE.Null ~by ~where t in
        if cached <> cold then Alcotest.failf "group_count diverged at step %d" step;
        agree "group_count" step run
          (QE.group_count_observed QE.Profiling ~by ~where t)
          ~rows:(List.length cold)
    end
  done;
  Alcotest.(check bool) "sweep ran a meaningful number of queries" true (!queries > 300);
  Alcotest.(check bool) "the cache was actually exercised" true (QE.cache_length () > 0)

let suite =
  [
    Alcotest.test_case "lru hit/stale/absent" `Quick test_lru_hit_stale_absent;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity" `Quick test_lru_capacity;
    Alcotest.test_case "hit/miss/invalidation counters" `Quick
      test_select_hit_miss_invalidate_counters;
    Alcotest.test_case "custom predicates never cached" `Quick
      test_custom_predicate_never_cached;
    Alcotest.test_case "disabled cache bypasses" `Quick test_cache_disabled_bypasses;
    Alcotest.test_case "eviction bound via Query_exec" `Quick
      test_eviction_bound_via_query_exec;
    Alcotest.test_case "property: cached = cold under interleaved mutation" `Quick
      test_property_cached_equals_cold;
  ]
