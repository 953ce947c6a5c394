module Obs = Provkit_obs

type order = Asc of string | Desc of string

type plan =
  | Full_scan
  | Index_eq of string
  | Index_range of string

(* The resolved access path: the plan plus everything needed to run it,
   so planning happens exactly once per query. *)
type access =
  | A_scan
  | A_eq of Index.t * Value.t list
  | A_range of Index.t * (Value.t * bool) option * (Value.t * bool) option
      (* bounds carry an inclusivity flag; see Predicate.conjunctive_range *)

(* Run a possibly-exclusive single-column range over the (inclusive)
   index fold: seek with the boundary values, then skip entries sitting
   exactly on an excluded boundary.  The skip happens inside the fold
   callback, so an excluded boundary key is never counted as a scanned
   candidate — [exec_stats.rows_scanned] reflects the strict range, not
   the widened one. *)
let fold_bound_range idx lo hi ~init ~f =
  let key_of = Option.map (fun (v, _) -> [ v ]) in
  let excluded bound key =
    match (bound, key) with
    | Some (v, false), first :: _ -> Value.compare first v = 0
    | _ -> false
  in
  Index.fold_range ?lo:(key_of lo) ?hi:(key_of hi) idx ~init ~f:(fun acc key rowid ->
      if excluded lo key || excluded hi key then acc else f acc key rowid)

let eq_index table where =
  let eqs = Predicate.conjunctive_eqs where in
  let lookup col = List.assoc_opt col eqs in
  (* Usable when every indexed column is pinned by an equality. *)
  match
    List.find_opt
      (fun idx -> List.for_all (fun c -> lookup c <> None) (Index.column_names idx))
      (Table.indexes table)
  with
  | Some idx ->
    Some (idx, List.map (fun c -> List.assoc c eqs) (Index.column_names idx))
  | None -> None

let range_index table where =
  match Predicate.conjunctive_range where with
  | None -> None
  | Some (col, lo, hi) -> begin
    match Table.find_index_on table [ col ] with
    | None -> None
    | Some idx -> Some (idx, lo, hi)
  end

let access_for table where =
  match eq_index table where with
  | Some (idx, key) -> A_eq (idx, key)
  | None -> begin
    match range_index table where with
    | Some (idx, lo, hi) -> A_range (idx, lo, hi)
    | None -> A_scan
  end

let plan_of_access = function
  | A_scan -> Full_scan
  | A_eq (idx, _) -> Index_eq (Index.name idx)
  | A_range (idx, _, _) -> Index_range (Index.name idx)

let plan_for table where = plan_of_access (access_for table where)

let plan_name = function
  | Full_scan -> "full_scan"
  | Index_eq _ -> "index_eq"
  | Index_range _ -> "index_range"

(* Resolve the access path to candidate rowids without touching the row
   heap ([None] = scan: every rowid, enumerated by the fetch phase).  A
   range's ids come out reversed, the order its fold accumulates; the
   fetch's [rev_map] restores index order without another list. *)
let probe_rowids access =
  match access with
  | A_scan -> None
  | A_eq (idx, key) -> Some (Index.find idx key)
  | A_range (idx, lo, hi) ->
    Some (fold_bound_range idx lo hi ~init:[] ~f:(fun acc _key rowid -> rowid :: acc))

let fetch_rows table access rowids =
  let fetch rowid = (rowid, Table.get table rowid) in
  match (access, rowids) with
  | _, None -> Table.rows table
  | A_range _, Some ids -> List.rev_map fetch ids
  | (A_eq _ | A_scan), Some ids -> List.map fetch ids

type plan_detail = {
  chosen : plan;
  estimated_rows : int;
  table_rows : int;
  est_from_stats : bool;
}

(* The pre-catalog heuristic: rows the access path will pull before
   residual filtering.  For the index paths this probes the index
   (cheap: O(log n + k)) without touching the heap, so it is an exact
   candidate count — but it ignores residual predicates entirely, and
   for a scan it is the whole table however selective the predicate. *)
let plan_detail_heuristic table where =
  let access = access_for table where in
  let estimated_rows =
    match probe_rowids access with Some ids -> List.length ids | None -> Table.row_count table
  in
  { chosen = plan_of_access access; estimated_rows; table_rows = Table.row_count table;
    est_from_stats = false }

let m_estimates = Obs.Metrics.counter Obs.Names.stats_estimates
let m_misestimates = Obs.Metrics.counter Obs.Names.stats_misestimates

let plan_detail table where =
  match Stats.fresh table with
  | None -> plan_detail_heuristic table where
  | Some ts ->
    let est = Stats.estimate_rows ts where in
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_estimates;
    { chosen = plan_of_access (access_for table where);
      estimated_rows = int_of_float (Float.round est);
      table_rows = Table.row_count table;
      est_from_stats = true }

(* Estimated candidate rows an access path yields, from fresh stats:
   the per-operator numbers EXPLAIN ANALYZE shows next to actuals. *)
let estimate_access ts access ~table_rows =
  match access with
  | A_scan -> float_of_int table_rows
  | A_eq (idx, key) ->
    let n = float_of_int ts.Stats.ts_rows in
    if n <= 0.0 then 0.0
    else
      List.fold_left2
        (fun acc col v -> acc *. (Stats.estimate_eq ts col v /. n))
        n (Index.column_names idx) key
  | A_range (idx, lo, hi) -> begin
    match Index.column_names idx with
    (* The estimator works on plain boundary values: dropping the
       inclusivity flag only shifts the estimate by the boundary key's
       own frequency, well inside histogram resolution. *)
    | col :: _ -> Stats.estimate_range ts col (Option.map fst lo) (Option.map fst hi)
    | [] -> float_of_int table_rows
  end

(* Misestimate detector: when a fresh-stats estimate was served and the
   actual row count disagrees by more than this ratio in either
   direction, tick the counter and leave a flight-recorder incident
   pointing at the table (the cue to re-analyze). *)
let misestimate_threshold = 10.0

let note_estimate ~op table where ~actual =
  if Obs.Metrics.enabled () then
    match Stats.fresh table with
    | None -> ()
    | Some ts ->
      let est = Float.max 1.0 (Stats.estimate_rows ts where) in
      let act = Float.max 1.0 (float_of_int actual) in
      let ratio = Float.max (act /. est) (est /. act) in
      if ratio > misestimate_threshold then begin
        Obs.Metrics.incr m_misestimates;
        Obs.Flight.record "stats.misestimate"
          ~attrs:
            [
              ("op", op);
              ("table", Table.name table);
              ("estimated", Printf.sprintf "%.0f" est);
              ("actual", string_of_int actual);
              ("ratio", Printf.sprintf "%.1f" ratio);
            ]
      end

(* --- instrumentation ------------------------------------------------ *)

type exec_stats = {
  plan : plan;
  rows_scanned : int;
  rows_returned : int;
  elapsed_ns : int;
}

let m_queries = Obs.Metrics.counter Obs.Names.query_count
let m_full_scan = Obs.Metrics.counter Obs.Names.query_full_scan
let m_index_eq = Obs.Metrics.counter Obs.Names.query_index_eq
let m_index_range = Obs.Metrics.counter Obs.Names.query_index_range
let m_rows_scanned = Obs.Metrics.counter Obs.Names.query_rows_scanned
let m_rows_returned = Obs.Metrics.counter Obs.Names.query_rows_returned
let h_latency = Obs.Metrics.histogram Obs.Names.query_latency_ns

(* Every query shape funnels through here: run the thunk (which reports
   the plan it actually used), then record counters, the latency
   histogram, and a trace span.  With the registry off this is the bare
   run plus one branch — no clock reads. *)
let query_span_threshold_ns = ref 100_000

let set_query_span_threshold_ns n = query_span_threshold_ns := n

let executed ~op ~table_name ~detail run =
  if not (Obs.Metrics.enabled ()) then begin
    let result, plan, scanned, returned = run () in
    (result, { plan; rows_scanned = scanned; rows_returned = returned; elapsed_ns = 0 })
  end
  else begin
    let start_ns = Provkit_util.Timing.now_ns () in
    let result, plan, scanned, returned = run () in
    let elapsed = Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) start_ns) in
    Obs.Metrics.incr m_queries;
    Obs.Metrics.incr
      (match plan with
      | Full_scan -> m_full_scan
      | Index_eq _ -> m_index_eq
      | Index_range _ -> m_index_range);
    Obs.Metrics.add m_rows_scanned scanned;
    Obs.Metrics.add m_rows_returned returned;
    Obs.Metrics.observe h_latency elapsed;
    (* Slow-query log: building a span's attribute list costs more than a
       sub-microsecond index probe, so only queries past the threshold
       get one.  Counters and the latency histogram above still see
       every query. *)
    if elapsed >= !query_span_threshold_ns then
      Obs.Trace.record Obs.Names.span_query
        ~attrs:
          [
            ("op", op);
            ("table", table_name);
            ("plan", plan_name plan);
            ("rows_scanned", string_of_int scanned);
            ("rows_returned", string_of_int returned);
          ]
        ~start_ns ~dur_ns:(Int64.of_int elapsed);
    (* The slow-query log has its own (higher) threshold; the predicate
       shape is only rendered for queries that cross it. *)
    if elapsed >= Slowlog.threshold_ns () then
      Slowlog.note ~table:table_name ~op ~plan:(plan_name plan) ~detail:(detail ())
        ~elapsed_ns:elapsed ~rows_scanned:scanned ~rows_returned:returned;
    (result, { plan; rows_scanned = scanned; rows_returned = returned; elapsed_ns = elapsed })
  end

(* --- sinks: plain runs and EXPLAIN ANALYZE ---------------------------- *)

type profile = {
  op : string;
  detail : string;
  rows_in : int;
  rows_out : int;
  est_rows : int option;
      (* catalog estimate of rows_out, present when fresh stats existed *)
  dur_ns : int;
  children : profile list;
}

(* Each operator body below is written once and reports its phase
   boundaries to a sink.  Under [Null] a boundary is a no-op and the
   body yields [()]; under [Profiling] each boundary reads the clock and
   the body yields a profile tree.  Consecutive phases share boundary
   timestamps, so leaf durations tile the root interval exactly: the
   sum of leaf dur_ns equals the root dur_ns up to clock monotonicity.
   Unlike [exec_stats.elapsed_ns], profile timing does not depend on
   the observability switch — choosing the profiling sink is the
   opt-in. *)
type _ sink = Null : unit sink | Profiling : profile sink

let[@inline] mark : type p. p sink -> int64 = function
  | Null -> 0L
  | Profiling -> Provkit_util.Timing.now_ns ()

let ns_between a b = Int64.to_int (Int64.sub b a)

let access_detail = function
  | A_scan -> "heap_scan"
  | A_eq (idx, _) -> Printf.sprintf "index_eq(%s)" (Index.name idx)
  | A_range (idx, _, _) -> Printf.sprintf "index_range(%s)" (Index.name idx)

let leaf ?est op detail rows_in rows_out a b =
  { op; detail; rows_in; rows_out; est_rows = est; dur_ns = ns_between a b; children = [] }

let round_est f = Some (int_of_float (Float.round f))

(* The probe and fetch phases every single-table operator starts with. *)
type fetched = {
  access : access;
  rowids : int list option;
  cands : (int * Row.t) list;
  n_cands : int;
  probe_est : int option;
  filter_est : int option;
  t0 : int64;
  t1 : int64;
  t2 : int64;
}

let probe_and_fetch (type p) (sink : p sink) table where =
  let t0 = mark sink in
  let access = access_for table where in
  (* The profiling sink's per-operator estimates, from one fresh-stats
     lookup: the probe phase gets the access-path estimate, the filter
     phase (and the root) the post-predicate estimate. *)
  let probe_est, filter_est =
    match sink with
    | Null -> (None, None)
    | Profiling -> (
      match Stats.fresh table with
      | None -> (None, None)
      | Some ts ->
        ( round_est (estimate_access ts access ~table_rows:(Table.row_count table)),
          round_est (Stats.estimate_rows ts where) ))
  in
  let rowids = probe_rowids access in
  let t1 = mark sink in
  let cands = fetch_rows table access rowids in
  let n_cands = List.length cands in
  let t2 = mark sink in
  { access; rowids; cands; n_cands; probe_est; filter_est; t0; t1; t2 }

let fetched_leaves table f =
  let table_rows = Table.row_count table in
  let probed = match f.rowids with Some ids -> List.length ids | None -> table_rows in
  [
    leaf ?est:f.probe_est "probe" (access_detail f.access) table_rows probed f.t0 f.t1;
    leaf "fetch"
      (match f.access with A_scan -> "heap_scan" | A_eq _ | A_range _ -> "rowid_fetch")
      probed f.n_cands f.t1 f.t2;
  ]

(* --- result cache --------------------------------------------------- *)

(* The plain [select]/[count]/[group_count] entry points consult a
   process-wide LRU keyed by (table uid, op, predicate, order, limit)
   and validated against the table's modification epoch.  The
   [*_observed] entry points never do: their callers asked to see the
   execution, so they always run it.  Predicates containing a [Custom]
   closure are uncacheable and bypass the cache entirely. *)

let m_cache_hits = Obs.Metrics.counter Obs.Names.query_cache_hits
let m_cache_misses = Obs.Metrics.counter Obs.Names.query_cache_misses
let m_cache_evictions = Obs.Metrics.counter Obs.Names.query_cache_evictions
let m_cache_invalidations = Obs.Metrics.counter Obs.Names.query_cache_invalidations

let cache = Query_cache.create ()
let cache_enabled = ref true

let set_cache_enabled b = cache_enabled := b
let set_cache_capacity n = Query_cache.set_capacity cache n
let cache_capacity () = Query_cache.capacity cache
let cache_length () = Query_cache.length cache
let clear_cache () = Query_cache.clear cache

(* None = this query cannot be keyed (Custom predicate): run cold. *)
let cache_key ~op ~aux ~order_by ~limit table where =
  let buf = Buffer.create 64 in
  Varint.write_unsigned buf (Table.uid table);
  Codec.write_string buf op;
  Codec.write_string buf aux;
  if not (Predicate.fingerprint buf where) then None
  else begin
    Varint.write_unsigned buf (List.length order_by);
    List.iter
      (fun spec ->
        match spec with
        | Asc c ->
          Buffer.add_char buf 'a';
          Codec.write_string buf c
        | Desc c ->
          Buffer.add_char buf 'd';
          Codec.write_string buf c)
      order_by;
    (match limit with
    | None -> Buffer.add_char buf '\000'
    | Some n ->
      Buffer.add_char buf '\001';
      Varint.write_unsigned buf n);
    Some (Buffer.contents buf)
  end

(* --- matview sources ------------------------------------------------ *)

(* A registered materialized view can answer a whole query shape
   without touching the table or the LRU cache.  Sources are keyed by
   (table uid, op, aux) and only match the trivial shape — no residual
   predicate, no ordering, no limit — anything else falls through cold.
   Freshness is the source's own problem: [mv_fresh] typically compares
   a stamped [Table.epoch] against the current one, so a direct table
   mutation that bypassed the view's feed path disqualifies it. *)

let m_matview_serves = Obs.Metrics.counter Obs.Names.matview_serves

type matview_source = {
  mv_table : int;
  mv_op : string;
  mv_aux : string;
  mv_fresh : unit -> bool;
  mv_payload : unit -> Query_cache.payload;
}

let matview_sources : matview_source list ref = ref []

let register_matview_source ~table ~op ~aux ~fresh ~payload =
  let uid = Table.uid table in
  matview_sources :=
    { mv_table = uid; mv_op = op; mv_aux = aux; mv_fresh = fresh; mv_payload = payload }
    :: List.filter
         (fun s ->
           not (s.mv_table = uid && String.equal s.mv_op op && String.equal s.mv_aux aux))
         !matview_sources

let clear_matview_sources () = matview_sources := []
let matview_source_count () = List.length !matview_sources

let matview_lookup ~op ~aux table where ~order_by ~limit =
  match (where, order_by, limit, !matview_sources) with
  | Predicate.True, [], None, (_ :: _ as sources) ->
    let uid = Table.uid table in
    (match
       List.find_opt
         (fun s -> s.mv_table = uid && String.equal s.mv_op op && String.equal s.mv_aux aux)
         sources
     with
    | Some s when s.mv_fresh () ->
      Obs.Metrics.incr m_matview_serves;
      Some (s.mv_payload ())
    | Some _ | None -> None)
  | _ -> None

(* The stage every plain entry point wraps around its cold body: a
   fresh matview source, else the result cache (filled on a miss), else
   [cold].  [decode] projects a stored payload back out; the op tag
   inside the key guarantees the constructor matches. *)
let served ~op ~aux ~order_by ~limit table where ~decode ~encode cold =
  match matview_lookup ~op ~aux table where ~order_by ~limit with
  | Some payload -> decode payload
  | None -> (
    let key = if !cache_enabled then cache_key ~op ~aux ~order_by ~limit table where else None in
    match key with
    | None -> cold ()
    | Some key -> (
      let epoch = Table.epoch table in
      let miss () =
        Obs.Metrics.incr m_cache_misses;
        let result = cold () in
        let evicted = Query_cache.put cache ~key ~epoch (encode result) in
        Obs.Metrics.add m_cache_evictions evicted;
        result
      in
      match Query_cache.find cache ~key ~epoch with
      | Query_cache.Hit payload ->
        Obs.Metrics.incr m_cache_hits;
        decode payload
      | Query_cache.Stale ->
        Obs.Metrics.incr m_cache_invalidations;
        miss ()
      | Query_cache.Absent -> miss ()))

(* --- execution ------------------------------------------------------ *)

let compare_rows schema order_by (ra_id, ra) (rb_id, rb) =
  let rec go = function
    | [] -> Int.compare ra_id rb_id
    | spec :: rest ->
      let col, flip = match spec with Asc c -> (c, 1) | Desc c -> (c, -1) in
      let c = flip * Value.compare (Row.get schema ra col) (Row.get schema rb col) in
      if c <> 0 then c else go rest
  in
  go order_by

(* Rendered lazily: only queries that cross the slowlog threshold pay
   for pretty-printing their predicate. *)
let pred_detail where () = Format.asprintf "%a" Predicate.pp where

let select_observed (type p) (sink : p sink) ?(where = Predicate.True) ?(order_by = []) ?limit
    table : (int * Row.t) list * exec_stats * p =
  let schema = Table.schema table in
  let (final, profile), stats =
    executed ~op:"select" ~table_name:(Table.name table) ~detail:(pred_detail where) (fun () ->
        let f = probe_and_fetch sink table where in
        let hits = List.filter (fun (_, row) -> Predicate.eval where schema row) f.cands in
        let t3 = mark sink in
        let sorted =
          match order_by with
          | [] -> List.sort (fun (a, _) (b, _) -> Int.compare a b) hits
          | _ :: _ -> List.sort (compare_rows schema order_by) hits
        in
        let t4 = mark sink in
        let final =
          match limit with
          | None -> sorted
          | Some n -> List.filteri (fun i _ -> i < n) sorted
        in
        let t5 = mark sink in
        let n_final = List.length final in
        let profile : p =
          match sink with
          | Null -> ()
          | Profiling ->
            (* [sorted], not [hits]: naming [hits] here would keep that
               list alive through the sort and limit phases. *)
            let n_hits = List.length sorted in
            note_estimate ~op:"select" table where ~actual:n_hits;
            {
              op = "select";
              detail = Table.name table;
              rows_in = Table.row_count table;
              rows_out = n_final;
              est_rows = f.filter_est;
              dur_ns = ns_between f.t0 t5;
              children =
                fetched_leaves table f
                @ [
                    leaf ?est:f.filter_est "filter" "residual_predicate" f.n_cands n_hits f.t2 t3;
                    leaf "sort"
                      (match order_by with [] -> "rowid_order" | _ :: _ -> "order_by")
                      n_hits n_hits t3 t4;
                    leaf "limit"
                      (match limit with None -> "none" | Some n -> string_of_int n)
                      n_hits n_final t4 t5;
                  ];
            }
        in
        ((final, profile), plan_of_access f.access, f.n_cands, n_final))
  in
  (final, stats, profile)

let select ?(where = Predicate.True) ?(order_by = []) ?limit table =
  served ~op:"select" ~aux:"" ~order_by ~limit table where
    ~decode:(function
      | Query_cache.Rows rows -> rows
      | Query_cache.Count _ | Query_cache.Groups _ -> assert false)
    ~encode:(fun rows -> Query_cache.Rows rows)
    (fun () ->
      let rows, _, () = select_observed Null ~where ~order_by ?limit table in
      rows)

let count_observed (type p) (sink : p sink) ?(where = Predicate.True) table : int * exec_stats * p
    =
  let schema = Table.schema table in
  let (n, profile), stats =
    executed ~op:"count" ~table_name:(Table.name table) ~detail:(pred_detail where) (fun () ->
        let f = probe_and_fetch sink table where in
        let n =
          List.fold_left
            (fun acc (_, row) -> if Predicate.eval where schema row then acc + 1 else acc)
            0 f.cands
        in
        let t3 = mark sink in
        let profile : p =
          match sink with
          | Null -> ()
          | Profiling ->
            note_estimate ~op:"count" table where ~actual:n;
            {
              op = "count";
              detail = Table.name table;
              rows_in = Table.row_count table;
              rows_out = 1;
              est_rows = None;
              dur_ns = ns_between f.t0 t3;
              children =
                fetched_leaves table f
                @ [ leaf ?est:f.filter_est "filter" "residual_predicate" f.n_cands n f.t2 t3 ];
            }
        in
        ((n, profile), plan_of_access f.access, f.n_cands, 1))
  in
  (n, stats, profile)

let count ?(where = Predicate.True) table =
  served ~op:"count" ~aux:"" ~order_by:[] ~limit:None table where
    ~decode:(function
      | Query_cache.Count n -> n
      | Query_cache.Rows _ | Query_cache.Groups _ -> assert false)
    ~encode:(fun n -> Query_cache.Count n)
    (fun () ->
      let n, _, () = count_observed Null ~where table in
      n)

(* The aggregate phase's output is groups, not rows: cap the
   filtered-row estimate by the grouping column's NDV. *)
let group_estimate table by filter_est =
  match (Stats.fresh table, filter_est) with
  | Some ts, Some est -> begin
    match List.assoc_opt by ts.Stats.ts_columns with
    | Some cs -> round_est (Float.min cs.Stats.cs_ndv (float_of_int est))
    | None -> None
  end
  | _ -> None

let group_count_observed (type p) (sink : p sink) ~by ?(where = Predicate.True) table :
    (Value.t * int) list * exec_stats * p =
  let schema = Table.schema table in
  let (sorted, profile), stats =
    executed ~op:"group_count" ~table_name:(Table.name table) ~detail:(pred_detail where)
      (fun () ->
        let f = probe_and_fetch sink table where in
        let counts = Hashtbl.create 64 in
        List.iter
          (fun (_, row) ->
            if Predicate.eval where schema row then begin
              let key = Row.get schema row by in
              let n = Option.value ~default:0 (Hashtbl.find_opt counts key) in
              Hashtbl.replace counts key (n + 1)
            end)
          f.cands;
        let groups = Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] in
        let n_groups = List.length groups in
        let t3 = mark sink in
        let sorted =
          List.sort
            (fun (ka, na) (kb, nb) ->
              let c = Int.compare nb na in
              if c <> 0 then c else Value.compare ka kb)
            groups
        in
        let t4 = mark sink in
        let profile : p =
          match sink with
          | Null -> ()
          | Profiling ->
            let matched = List.fold_left (fun acc (_, n) -> acc + n) 0 groups in
            note_estimate ~op:"group_count" table where ~actual:matched;
            {
              op = "group_count";
              detail = Table.name table;
              rows_in = Table.row_count table;
              rows_out = n_groups;
              est_rows = None;
              dur_ns = ns_between f.t0 t4;
              children =
                fetched_leaves table f
                @ [
                    leaf
                      ?est:(group_estimate table by f.filter_est)
                      "aggregate" ("group_by(" ^ by ^ ")") f.n_cands n_groups f.t2 t3;
                    leaf "sort" "count_desc" n_groups n_groups t3 t4;
                  ];
            }
        in
        ((sorted, profile), plan_of_access f.access, f.n_cands, n_groups))
  in
  (sorted, stats, profile)

let group_count ~by ?(where = Predicate.True) table =
  served ~op:"group_count" ~aux:by ~order_by:[] ~limit:None table where
    ~decode:(function
      | Query_cache.Groups groups -> groups
      | Query_cache.Rows _ | Query_cache.Count _ -> assert false)
    ~encode:(fun groups -> Query_cache.Groups groups)
    (fun () ->
      let groups, _, () = group_count_observed Null ~by ~where table in
      groups)

let join_observed (type p) (sink : p sink) ?(where_left = Predicate.True)
    ?(where_right = Predicate.True) ~on left right :
    ((int * Row.t) * (int * Row.t)) list * exec_stats * p =
  let left_cols = List.map fst on and right_cols = List.map snd on in
  let lschema = Table.schema left in
  let rschema = Table.schema right in
  (* The reported plan is the right side's probe path — the decision
     this executor makes (the left side records its own select).  Rows
     scanned counts the probed/hashed right rows. *)
  let scanned = ref 0 in
  let (pairs, profile), stats =
    executed ~op:"join" ~table_name:(Table.name right)
      ~detail:(fun () -> "on " ^ String.concat "," (List.map snd on))
      (fun () ->
        let t0 = mark sink in
        let left_rows = select ~where:where_left left in
        let t1 = mark sink in
        let key_of_left (_, row) = List.map (Row.get lschema row) left_cols in
        (* [built] is the hash path's (rows hashed, hash table); the
           index path has no build phase, so its probe starts at [t1]. *)
        let plan, built, right_matches, t2 =
          match Table.find_index_on right right_cols with
          | Some idx ->
            ( Index_eq (Index.name idx),
              None,
              (fun key ->
                List.filter_map
                  (fun rowid ->
                    incr scanned;
                    let row = Table.get right rowid in
                    if Predicate.eval where_right rschema row then Some (rowid, row) else None)
                  (Index.find idx key)),
              t1 )
          | None ->
            (* Build a one-shot hash join table. *)
            let tbl = Hashtbl.create 256 in
            let rows = select ~where:where_right right in
            List.iter
              (fun (rowid, row) ->
                incr scanned;
                let key = List.map (Row.get rschema row) right_cols in
                Hashtbl.add tbl key (rowid, row))
              rows;
            ( Full_scan,
              Some (rows, tbl),
              (fun key -> List.rev (Hashtbl.find_all tbl key)),
              mark sink )
        in
        let pairs =
          List.concat_map
            (fun l -> List.map (fun r -> (l, r)) (right_matches (key_of_left l)))
            left_rows
        in
        let t3 = mark sink in
        let n_pairs = List.length pairs in
        let profile : p =
          match sink with
          | Null -> ()
          | Profiling ->
            let n_left = List.length left_rows in
            let build =
              match built with
              | Some (rows, tbl) ->
                [ leaf "build" "hash_table" (List.length rows) (Hashtbl.length tbl) t1 t2 ]
              | None -> []
            in
            let probe_detail =
              match plan with
              | Index_eq name -> Printf.sprintf "index_eq(%s)" name
              | Full_scan | Index_range _ -> "hash_probe"
            in
            {
              op = "join";
              detail = Printf.sprintf "%s x %s" (Table.name left) (Table.name right);
              rows_in = n_left;
              rows_out = n_pairs;
              est_rows = None;
              dur_ns = ns_between t0 t3;
              children =
                (leaf "left_input" (Table.name left) (Table.row_count left) n_left t0 t1 :: build)
                @ [ leaf "probe" probe_detail n_left n_pairs t2 t3 ];
            }
        in
        ((pairs, profile), plan, !scanned, n_pairs))
  in
  (pairs, stats, profile)

let join ?where_left ?where_right ~on left right =
  let pairs, _, () = join_observed Null ?where_left ?where_right ~on left right in
  pairs

(* --- profile rendering ---------------------------------------------- *)

let rec profile_to_json p =
  Printf.sprintf
    "{\"op\":\"%s\",\"detail\":\"%s\",\"rows_in\":%d,\"rows_out\":%d,%s\"dur_ns\":%d,\"children\":[%s]}"
    (Obs.Metrics.json_escape p.op)
    (Obs.Metrics.json_escape p.detail)
    p.rows_in p.rows_out
    (match p.est_rows with None -> "" | Some e -> Printf.sprintf "\"est_rows\":%d," e)
    p.dur_ns
    (String.concat "," (List.map profile_to_json p.children))

let render_profile p =
  let total = max p.dur_ns 1 in
  let buf = Buffer.create 256 in
  let rec go depth n =
    let label = String.make (2 * depth) ' ' ^ n.op ^ " " ^ n.detail in
    let est =
      match n.est_rows with
      | None -> String.make 11 ' '
      | Some e -> Printf.sprintf " (est %4d)" e
    in
    Buffer.add_string buf
      (Printf.sprintf "%-44s rows %6d -> %-6d%s %5.1f%% %10.3f ms\n" label n.rows_in
         n.rows_out est
         (100.0 *. float_of_int n.dur_ns /. float_of_int total)
         (float_of_int n.dur_ns /. 1e6));
    List.iter (go (depth + 1)) n.children
  in
  go 0 p;
  Buffer.contents buf

let fold_profile p =
  let rec go prefix n acc =
    let path = match prefix with "" -> n.op | _ -> prefix ^ ";" ^ n.op in
    let child_ns = List.fold_left (fun a c -> a + c.dur_ns) 0 n.children in
    let acc = (path, max 0 (n.dur_ns - child_ns)) :: acc in
    List.fold_left (fun acc c -> go path c acc) acc n.children
  in
  List.rev (go "" p [])
