(* Workloads relational-index and relational-scan: the relational image
   (Prov_schema) of the 79-day trace, read by one closed-loop client
   with zero think time.  Each workload asks its own query shapes in a
   fixed rotation — the index shapes in one, the full scans in the
   other, so that each class drives its own end-to-end figures — and
   asks each as SQL text (Sql.parse + Sql.execute_stats, which never
   consults the result cache) and as a programmatic Query_exec call
   (which goes through Query_cache).  Parameters come from the image's
   own rows, and each shape's pool is drawn Zipf-skewed, so the cache
   sees repeats as well as misses.

   Every answer is compared with a full-scan oracle (Predicate.eval over
   Table.rows), computed for every pool entry before anything is timed
   and kept as a digest. *)

open Helpers
module R = Relstore
module P = R.Predicate
module Q = R.Query_exec
module V = R.Value
module Prng = Provkit_util.Prng

type shape = Url_eq | Src_range | Time_range | Group_kind | Label_like

let shape_name = function
  | Url_eq -> "url_eq"
  | Src_range -> "src_range"
  | Time_range -> "time_range"
  | Group_kind -> "group_kind"
  | Label_like -> "label_like"

(* A workload: the shapes it asks, one of each in turn; the distinct
   requests per shape and the Zipf exponent they are drawn with; the
   result-cache capacity pinned for it, smaller than all the pools
   together so the cache keeps both hitting and missing; the unmeasured
   steps that bring the cache to its steady state; and the block length
   of the traced run's traced/untraced alternation. *)
type mix = {
  shapes : shape array;
  pool_size : int;
  zipf_exponent : float;
  cache_capacity : int;
  warmup_steps : int;
  block : int;
}

(* Index equality on url, a strict range on prov_edge.src, and
   GROUP BY kind over an indexed src range, drawn skewed so popular
   requests repeat: the cache answers about 85% of the programmatic
   calls, which puts the median request inside the url_eq band rather
   than on the edge between two shapes' latencies. *)
let index_mix =
  {
    shapes = [| Url_eq; Src_range; Group_kind |];
    pool_size = 200;
    zipf_exponent = 1.0;
    cache_capacity = 320;
    warmup_steps = 4096;
    block = 200;
  }

(* An unindexed time range and LIKE on label: full scans whose cost
   varies with the size of the answer, so the draws are uniform over a
   large pool — a skewed draw would make a run's mean cost hinge on the
   few requests it happened to favour.  The cache answers about one
   programmatic call in twelve. *)
let scan_mix =
  {
    shapes = [| Time_range; Label_like |];
    pool_size = 96;
    zipf_exponent = 0.0;
    cache_capacity = 16;
    warmup_steps = 16;
    block = 20;
  }

let rounds = 6
let pool_seed = 0x5eed

type request = {
  shape : shape;
  table : string;
  sql : string;
  where : P.t;
  expected : Digest.t;  (** digest of the oracle's normalised answer *)
}

let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
let node_table = Core.Prov_schema.node_table
let edge_table = Core.Prov_schema.edge_table

let table_of_shape = function
  | Url_eq | Time_range | Label_like -> node_table
  | Src_range | Group_kind -> edge_table

(* The SQL text and predicate of one request of [shape] built around
   [row] of its table, or [None] when that row carries no usable
   parameter. *)
let query_of_row shape schema row =
  let get c = R.Row.get schema row c in
  match shape with
  | Url_eq -> (
    match get "url" with
    | V.Text u ->
      Some (Printf.sprintf "SELECT * FROM %s WHERE url = %s" node_table (quote u), P.Eq ("url", V.Text u))
    | _ -> None)
  | Src_range ->
    let s = V.to_int (get "src") in
    Some
      ( Printf.sprintf "SELECT * FROM %s WHERE src > %d AND src < %d" edge_table (s - 1) (s + 32),
        P.And [ P.Cmp (P.Gt, "src", V.Int (s - 1)); P.Cmp (P.Lt, "src", V.Int (s + 32)) ] )
  | Time_range -> (
    match get "time" with
    | V.Int t ->
      Some
        ( Printf.sprintf "SELECT * FROM %s WHERE time BETWEEN %d AND %d" node_table t (t + 3600),
          P.Between ("time", V.Int t, V.Int (t + 3600)) )
    | _ -> None)
  | Group_kind ->
    let s = V.to_int (get "src") in
    Some
      ( Printf.sprintf "SELECT kind, COUNT(*) FROM %s WHERE src BETWEEN %d AND %d GROUP BY kind"
          edge_table s (s + 256),
        P.Between ("src", V.Int s, V.Int (s + 256)) )
  | Label_like -> (
    let words =
      match get "label" with
      | V.Text l ->
        List.filter
          (fun w -> String.length w >= 5 && not (String.contains w '\''))
          (String.split_on_char ' ' l)
      | _ -> []
    in
    match words with
    | [] -> None
    | w :: _ ->
      Some (Printf.sprintf "SELECT * FROM %s WHERE label LIKE %s" node_table (quote w), P.Like ("label", w)))

(* Answers in one comparable form: a row as [rowid :: columns], a group
   as [value; count], groups sorted by value. *)
let of_rows rows = List.map (fun (id, row) -> V.Int id :: Array.to_list row) rows
let of_groups groups = List.sort compare (List.map (fun (v, n) -> [ v; V.Int n ]) groups)
let digest (answer : V.t list list) = Digest.string (Marshal.to_string answer [ Marshal.No_sharing ])

(* The full-scan oracle: Predicate.eval over every row of Table.rows. *)
let oracle (rows, schema) shape where =
  let hits = List.filter (fun (_, row) -> P.eval where schema row) rows in
  match shape with
  | Group_kind ->
    let counts = Hashtbl.create 8 in
    List.iter
      (fun (_, row) ->
        let k = R.Row.get schema row "kind" in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      hits;
    of_groups (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])
  | _ -> of_rows hits

(* [pool_size] distinct requests of [shape] from rows drawn at random,
   each with its oracle answer. *)
let build_pool db rng ~pool_size shape =
  let t = R.Database.table db (table_of_shape shape) in
  let rows = R.Table.rows t and schema = R.Table.schema t in
  let picks = Array.of_list rows in
  let seen = Hashtbl.create pool_size in
  let pool = ref [] and tries = ref 0 in
  while Hashtbl.length seen < pool_size && !tries < 100 * pool_size do
    incr tries;
    match query_of_row shape schema (snd (Prng.pick rng picks)) with
    | Some (sql, where) when not (Hashtbl.mem seen sql) ->
      Hashtbl.add seen sql ();
      let expected = digest (oracle (rows, schema) shape where) in
      pool := { shape; table = R.Table.name t; sql; where; expected } :: !pool
    | _ -> ()
  done;
  if Hashtbl.length seen < pool_size then
    failwith (Printf.sprintf "only %d distinct %s requests" (Hashtbl.length seen) (shape_name shape));
  Array.of_list (List.rev !pool)

let programmatic db req =
  let table = R.Database.table db req.table in
  match req.shape with
  | Group_kind -> of_groups (Q.group_count ~by:"kind" ~where:req.where table)
  | _ -> of_rows (Q.select ~where:req.where table)

let sql_answer req (res : R.Sql.result) =
  match req.shape with Group_kind -> List.sort compare res.R.Sql.rows | _ -> res.R.Sql.rows

(* --- set-up and restart ----------------------------------------------- *)

type samples = {
  mutable setups : (int * int * int) list;  (** capture, text index, export + persist *)
  mutable restarts : (int * int) list;  (** whole restart, image load *)
  mutable checks_ok : bool;  (** restarts and warm-up steps answered correctly *)
}

(* The program's work before the read loop: capture the trace, build the
   text index, export and persist the relational image.  Returns the
   image and its node count; the store and the text index are dropped. *)
let set_up samples ~path (inputs : Inputs.t) =
  Gc.full_major ();
  let t0 = now_ns () in
  let capture, _ = Core.Capture.observer () in
  Core.Capture.handle_batch capture inputs.events;
  let store = Core.Capture.store capture in
  let t1 = now_ns () in
  ignore (Core.Prov_text_index.build store);
  let t2 = now_ns () in
  let db = Core.Prov_schema.to_database store in
  R.Database.save db ~path;
  let t3 = now_ns () in
  samples.setups <- (t1 - t0, t2 - t1, t3 - t2) :: samples.setups;
  (db, Core.Prov_store.node_count store)

(* Restart: load the persisted image (rebuilding its indexes) and answer
   a first query, given as SQL text.  Records the times and returns the
   answer's digest. *)
let restart samples ~path ~first_sql =
  Gc.full_major ();
  let t0 = now_ns () in
  let db = R.Database.load ~path in
  let t1 = now_ns () in
  let res = R.Sql.execute db (R.Sql.parse first_sql) in
  let t2 = now_ns () in
  samples.restarts <- (t2 - t0, t1 - t0) :: samples.restarts;
  digest res.R.Sql.rows

(* What a [sample] process does, with a fresh heap: one set-up, whose
   image it saves at [path], and one restart from that image answering
   [first_sql].  It prints the five times in ns and the answer's digest. *)
let sample_process ~path ~first_sql (inputs : Inputs.t) =
  let samples = { setups = []; restarts = []; checks_ok = true } in
  ignore (set_up samples ~path inputs);
  let answer = restart samples ~path ~first_sql in
  match (samples.setups, samples.restarts) with
  | [ (c, i, p) ], [ (r, l) ] -> Printf.printf "%d %d %d %d %d %s\n" c i p r l (Digest.to_hex answer)
  | _ -> assert false

(* Runs a [sample] process through [sample] and records its figures; its
   restart must answer the first request as the oracle does. *)
let take_sample samples ~sample ~path (first : request) =
  match sample ~image:path ~first:first.sql with
  | [ c; i; p; r; l; answer ] ->
    samples.setups <- (int_of_string c, int_of_string i, int_of_string p) :: samples.setups;
    samples.restarts <- (int_of_string r, int_of_string l) :: samples.restarts;
    if answer <> Digest.to_hex first.expected then samples.checks_ok <- false
  | fields -> failwith ("malformed sample: " ^ String.concat " " fields)

let setup_s samples = median (List.map (fun (c, i, p) -> s_of_ns (c + i + p)) samples.setups)

let setup_layers samples =
  let med f = median (List.map (fun t -> s_of_ns (f t)) samples.setups) in
  [
    metric "capture.trace_s" "s" (med (fun (c, _, _) -> c));
    metric "prov_text_index.build_s" "s" (med (fun (_, i, _) -> i));
    metric "export.persist_s" "s" (med (fun (_, _, p) -> p));
  ]

(* --- the read loop ---------------------------------------------------- *)

type trace_acc = {
  parse_us : Samples.t;
  exec_ms : Samples.t array;  (** per shape, cold SQL executor time *)
  scanned : int array;
  returned : int array;
  mutable full_scans : int;
  mutable executions : int;
}

type bench = {
  db : R.Database.t;
  nodes : int;
  path : string;
  pools : request array array;  (** one per shape of the mix *)
  zipf : Provkit_util.Zipf.t;
  rng : Prng.t;
  spans : Spans.t;
  mutable steps : int;
}

(* One SQL request and one programmatic request for the same pool entry
   of the next shape in turn, each checked against the oracle outside
   the timed part.  [acc] collects the traced run's executor
   statistics. *)
let step b st ?acc () =
  let si = b.steps mod Array.length b.pools in
  b.steps <- b.steps + 1;
  let req = b.pools.(si).(Provkit_util.Zipf.sample b.zipf b.rng) in
  let db = b.db in
  let span name f = Spans.with_span b.spans name f in
  let t0 = now_ns () in
  let res, xs, parse_ns, exec_ns =
    span "request" (fun () ->
        let a = now_ns () in
        let ast = span "sql.parse" (fun () -> R.Sql.parse req.sql) in
        let m = now_ns () in
        let res, xs = span "sql.execute" (fun () -> R.Sql.execute_stats db ast) in
        (res, xs, m - a, now_ns () - m))
  in
  let t1 = now_ns () in
  let answer = span "request" (fun () -> span "query_exec" (fun () -> programmatic db req)) in
  let t2 = now_ns () in
  let matches a = Digest.equal (digest a) req.expected in
  record st ~correct:(matches (sql_answer req res)) ~complete:true (t1 - t0);
  record st ~correct:(matches answer) ~complete:true (t2 - t1);
  match acc with
  | None -> ()
  | Some a ->
    Samples.add a.parse_us (float_of_int parse_ns /. 1e3);
    Samples.add a.exec_ms.(si) (ms_of_ns exec_ns);
    a.scanned.(si) <- a.scanned.(si) + xs.Q.rows_scanned;
    a.returned.(si) <- a.returned.(si) + xs.Q.rows_returned;
    a.executions <- a.executions + 1;
    if xs.Q.plan = Q.Full_scan then a.full_scans <- a.full_scans + 1

(* The set-up of the image that is read: it gives the pools and their
   oracle answers.  Then unmeasured steps bring the result cache to its
   steady state.  The other set-up and the restart samples are taken
   between rounds, each in a fresh process (see [take_sample]), so that
   no sample depends on the heap the query load leaves behind and this
   process holds one image only.  Returns the bench, the samples and the
   between-rounds sampler. *)
let prepare ~sample ~scratch mix (inputs : Inputs.t) ~seed =
  Q.set_cache_enabled true;
  Q.set_cache_capacity mix.cache_capacity;
  Q.clear_cache ();
  let samples = { setups = []; restarts = []; checks_ok = true } in
  let path = Filename.concat scratch "image.db" in
  let db, nodes = set_up samples ~path inputs in
  let rng = Prng.create (seed + 0x5eed) in
  (* The pools are the same in every run; the seed draws from them.  A
     pool drawn per seed made the run's cost hinge on the answer sizes
     of the few requests its Zipf ranks favoured: the median url_eq SQL
     request took 5.1 us under one seed and 6.7 us under another. *)
  let pool_rng = Prng.create pool_seed in
  let b =
    {
      db;
      nodes;
      path;
      pools = Array.map (build_pool db pool_rng ~pool_size:mix.pool_size) mix.shapes;
      zipf = Provkit_util.Zipf.create ~n:mix.pool_size ~s:mix.zipf_exponent;
      rng;
      spans = Spans.create ();
      steps = 0;
    }
  in
  (match mix.shapes.(0) with
  | Group_kind -> invalid_arg "Reads: a restart's first query must return rows"
  | _ -> ());
  let warm = new_loop () in
  for _ = 1 to mix.warmup_steps do
    step b warm ()
  done;
  if warm.failed > 0 then samples.checks_ok <- false;
  let sample_path = Filename.concat scratch "sample.db" in
  (b, samples, fun () -> take_sample samples ~sample ~path:sample_path b.pools.(0).(0))

let e2e ~mix ~sample ~scratch ~(inputs : Inputs.t) ~seed ~seconds =
  let b, samples, resample = prepare ~sample ~scratch mix inputs ~seed in
  let loops =
    in_rounds ~rounds ~seconds ~fresh:new_loop
      ~busy:(fun l -> l.busy_ns)
      ~step:(fun l -> step b l ())
      ~between:resample
  in
  let attempted, failed = loop_counts loops in
  {
    correct = failed = 0 && samples.checks_ok;
    attempted;
    failed;
    metrics =
      [ metric "setup_s" "s" (setup_s samples); metric "peak_rss_mb" "MB" (peak_rss_mb ()) ]
      @ loop_metrics "request latency" loops
      @ [
          metric "restart_ms" "ms" (median (List.map (fun (r, _) -> ms_of_ns r) samples.restarts));
          metric "durable_bytes_per_node" "B" (float_of_int (file_size b.path) /. float_of_int b.nodes);
        ];
  }

(* Traced run: blocks of [mix.block] steps alternate between traced and
   untraced.  Self times and coverage come from the traced blocks'
   spans; executor figures from every block (they rest on the
   benchmark's own clock reads and the executor's statistics, not on
   spans); the tracing overhead from the recorder's cost per step
   against the untraced blocks' time per request. *)
let traced ~mix ~sample ~scratch ~(inputs : Inputs.t) ~seed ~seconds =
  let b, samples, resample = prepare ~sample ~scratch mix inputs ~seed in
  let n = Array.length mix.shapes in
  let acc =
    {
      parse_us = Samples.create ();
      exec_ms = Array.init n (fun _ -> Samples.create ());
      scanned = Array.make n 0;
      returned = Array.make n 0;
      full_scans = 0;
      executions = 0;
    }
  in
  let on = new_loop () and off = new_loop () in
  let counter = Provkit_obs.Metrics.counter_value in
  let hits0 = counter Provkit_obs.Names.query_cache_hits in
  let miss0 = counter Provkit_obs.Names.query_cache_misses in
  let traced_block = alternate b.spans ~block:mix.block in
  let step () = step b (if traced_block () then on else off) ~acc () in
  ignore
    (in_rounds ~rounds ~seconds
       ~fresh:(fun () -> on.busy_ns + off.busy_ns)
       ~busy:(fun start -> on.busy_ns + off.busy_ns - start)
       ~step:(fun _ -> step ())
       ~between:resample);
  (* Top up until every shape has enough samples for its p50 and the
     untraced blocks have begun. *)
  while off.attempted = 0 || Array.exists (fun sm -> Samples.length sm < 30) acc.exec_ms do
    step ()
  done;
  let hits = counter Provkit_obs.Names.query_cache_hits - hits0 in
  let misses = counter Provkit_obs.Names.query_cache_misses - miss0 in
  let lt = analyse (Spans.to_list b.spans) in
  let per_shape f = List.mapi f (Array.to_list (Array.map shape_name mix.shapes)) in
  let mean_ns l = float_of_int l.busy_ns /. float_of_int l.attempted in
  {
    correct = on.failed + off.failed = 0 && samples.checks_ok;
    attempted = on.attempted + off.attempted;
    failed = on.failed + off.failed;
    metrics =
      [ metric "sql.parse_us_p50" "us" (required_percentile "sql parse" ~p:50.0 acc.parse_us) ]
      @ per_shape (fun i s ->
            metric ("query_exec.exec_ms_p50." ^ s) "ms" (required_percentile s ~p:50.0 acc.exec_ms.(i)))
      @ per_shape (fun i s ->
            metric ("query_exec.rows_scanned_per_returned." ^ s) "ratio"
              (float_of_int acc.scanned.(i) /. float_of_int (max 1 acc.returned.(i))))
      @ [
          metric "query_exec.full_scan_frac" "ratio"
            (float_of_int acc.full_scans /. float_of_int acc.executions);
          metric "query_cache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (hits + misses));
          metric "relstore.image_load_ms" "ms"
            (median (List.map (fun (_, l) -> ms_of_ns l) samples.restarts));
        ]
      @ setup_layers samples
      @ [
          (* a step is two requests: roots with two and with one child *)
          metric "trace.overhead_pct" "%"
            (100.0
            *. ((tracer_cost_ns ~children:2 +. tracer_cost_ns ~children:1) /. 2.0)
            /. mean_ns off);
          metric "trace.coverage" "ratio" lt.coverage;
        ];
  }
