(* Workload provd-ingest: the whole write path of the provd daemon —
   Event_queue -> Capture -> matview fold -> segmented WAL group commit
   -> Prov_schema.to_database snapshot publish — and no query layer.

   One producer session and no read workers, so exactly two domains are
   busy (producer and ingest loop) on a two-core machine; the
   background domain sleeps on its condition variable and the main
   domain blocks in [Provd.wait].  Fleets have a fixed size because the
   publish cost grows with the store; they run back to back and
   throughput is aggregated over all of them, so it stays measurable
   however short a fleet becomes. *)

open Helpers
module Obs = Provkit_obs
module PL = Core.Prov_log
module Provd = Daemon.Provd

let fleet_events = 4000
let batch_size = 32
let snapshot_every = 4
let rounds = 5

(* Every field is pinned here rather than taken from [Provd.default],
   so a change of the daemon's defaults cannot change the workload. *)
let config ~seed ~wal_dir =
  {
    Provd.sessions = 1;
    events_per_session = fleet_events;
    queue_capacity = 512;
    batch_size;
    snapshot_every;
    read_workers = 0;
    read_mix = 0.0;
    analyze_every = 0;
    compact_every = 0;
    seed;
    wal_dir = Some wal_dir;
  }

(* The WAL configuration provd's ingest loop opens (group commit =
   batch size), for the single-domain replay. *)
let wal_config = { PL.Segmented.default_config with PL.Segmented.group_commit_ops = batch_size }

let fleet_seed ~seed k = (seed * 1000) + k
let stream ~seed = Daemon.Loadgen.session_events ~seed ~session:0 ~events:fleet_events

(* Final matview values of a serial, single-batch replay of [events]. *)
let serial_views events =
  let capture, _ = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let views, nodes, edges = Core.Store_views.standard () in
  let ops = ref [] in
  Core.Prov_store.set_observer store (fun m -> ops := PL.op_of_mutation m :: !ops);
  Core.Capture.handle_batch capture events;
  Relstore.Matview.feed_batch views (List.rev !ops);
  (Relstore.Matview.value nodes, Relstore.Matview.value edges)

let row_counts db =
  List.map
    (fun t -> (Relstore.Table.name t, Relstore.Table.row_count t))
    (Relstore.Database.tables db)

type fleet = {
  events : int;
  batches : int;
  elapsed_ns : int;
  batch_ns : int list;  (** provd's own [daemon.batch] span durations *)
  snapshot_ns : int list;  (** provd's own [daemon.snapshot] span durations *)
  recover_ns : int;
  wal_bytes : int;
  nodes : int;
  ok : bool;
}

(* One fleet through [Provd.start]/[wait], then its checks: the applied
   stream is the loadgen stream, the matview values equal a serial
   replay's, and WAL recovery (with views) yields the final snapshot's
   row counts.  provd's spans are read back from the trace ring it
   records into by default.  A full major collection precedes the fleet
   and the recovery, so neither pays for the garbage of the checks. *)
let run_fleet ~wal_dir ~seed =
  remove_tree wal_dir;
  Obs.Trace.clear ();
  Gc.full_major ();
  let t0 = now_ns () in
  let daemon = Provd.start (config ~seed ~wal_dir) in
  let r = Provd.wait daemon in
  let elapsed_ns = now_ns () - t0 in
  if Obs.Trace.recorded () > Obs.Trace.capacity () then failwith "provd spans overflowed the trace ring";
  let spans name =
    List.filter_map
      (fun (s : Obs.Trace.span) -> if s.name = name then Some (Int64.to_int s.dur_ns) else None)
      (Obs.Trace.recent ())
  in
  let batch_ns = spans Obs.Names.span_daemon_batch in
  let snapshot_ns = spans Obs.Names.span_daemon_snapshot in
  let expected = stream ~seed in
  let stream_ok = r.Provd.r_applied = expected in
  let views_ok = serial_views expected = (r.Provd.r_node_kinds, r.Provd.r_edge_kinds) in
  let views, _, _ = Core.Store_views.standard () in
  Gc.full_major ();
  let t1 = now_ns () in
  let recovered = PL.Segmented.recover ~views ~dir:wal_dir () in
  let recover_ns = now_ns () - t1 in
  let final =
    match Provd.current_snapshot daemon with
    | Some s -> s.Provd.db
    | None -> failwith "provd published no snapshot"
  in
  let wal_ok =
    (not recovered.PL.Segmented.truncated)
    && row_counts (Core.Prov_schema.to_database recovered.PL.Segmented.store) = row_counts final
  in
  let fleet =
    {
      events = r.Provd.r_events;
      batches = r.Provd.r_batches;
      elapsed_ns;
      batch_ns;
      snapshot_ns;
      recover_ns;
      wal_bytes = tree_size wal_dir;
      nodes = Relstore.Table.row_count (Relstore.Database.table final Core.Prov_schema.node_table);
      ok = stream_ok && views_ok && wal_ok && List.length batch_ns = r.Provd.r_batches;
    }
  in
  remove_tree wal_dir;
  fleet

(* The calls provd's ingest loop makes for the same stream, in one
   domain, with the same batch size and publish cadence — timed per
   layer by the benchmark's spans.  Mirrors [Provd.ingest_loop] as of
   this commit. *)
let replay spans ~wal_dir ~seed =
  remove_tree wal_dir;
  let events = Array.of_list (stream ~seed) in
  let queue = Daemon.Event_queue.create ~capacity:512 in
  let capture, _ = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let views, _, _ = Core.Store_views.standard () in
  let wal = PL.Segmented.open_ ~config:wal_config wal_dir in
  let pending = ref [] in
  Core.Prov_store.set_observer store (fun m -> pending := PL.op_of_mutation m :: !pending);
  let span name f = Spans.with_span spans name f in
  let n = Array.length events in
  Gc.full_major ();
  let t0 = now_ns () in
  let batches = ref 0 and i = ref 0 in
  while !i < n do
    let len = min batch_size (n - !i) in
    span "batch" (fun () ->
        let batch =
          span "event_queue" (fun () ->
              for j = !i to !i + len - 1 do
                Daemon.Event_queue.push queue events.(j)
              done;
              Daemon.Event_queue.pop_batch queue ~max:batch_size)
        in
        pending := [];
        span "capture" (fun () -> Core.Capture.handle_batch capture batch);
        let ops = List.rev !pending in
        span "matview" (fun () -> Relstore.Matview.feed_batch views ops);
        span "wal" (fun () -> PL.Segmented.append_batch wal ops);
        incr batches;
        if !batches mod snapshot_every = 0 then
          span "export" (fun () -> ignore (Core.Prov_schema.to_database store)));
    i := !i + len
  done;
  span "finish" (fun () ->
      span "export" (fun () -> ignore (Core.Prov_schema.to_database store));
      span "wal" (fun () ->
          PL.Segmented.durable wal;
          PL.Segmented.close wal));
  let elapsed = now_ns () - t0 in
  remove_tree wal_dir;
  (n, elapsed)

let batch_ms fleets =
  let s = Samples.create () in
  List.iter (fun fl -> List.iter (fun ns -> Samples.add s (ms_of_ns ns)) fl.batch_ns) fleets;
  s

(* Set-up is a warm-up fleet: one before the first of [rounds] rounds
   and one after each, so the set-up median spans the run.  Throughput
   aggregates every measured fleet (events over fleet time), so it stays
   well defined however short a fleet becomes. *)
let e2e ~wal_dir ~seed ~seconds =
  let k = ref 0 in
  let next () =
    incr k;
    run_fleet ~wal_dir ~seed:(fleet_seed ~seed !k)
  in
  let setup = ref [] in
  let warm_up () =
    let f = next () in
    if not f.ok then failwith "warm-up fleet failed its checks";
    setup := s_of_ns f.elapsed_ns :: !setup
  in
  warm_up ();
  let fleets =
    in_rounds ~rounds ~seconds
      ~fresh:(fun () -> ref [])
      ~busy:(fun fl -> sum (List.map (fun f -> f.elapsed_ns) !fl))
      ~step:(fun fl -> fl := next () :: !fl)
      ~between:warm_up
    |> List.concat_map ( ! )
  in
  let total f = sum (List.map f fleets) in
  let events = total (fun f -> f.events) in
  let failed = total (fun f -> if f.ok then 0 else f.events) in
  let within =
    total (fun f ->
        if f.ok then List.length (List.filter (fun ns -> ns <= 200_000_000) f.batch_ns) else 0)
  in
  {
    correct = failed = 0;
    attempted = events;
    failed;
    metrics =
      [
        metric "setup_s" "s" (median !setup);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        metric "throughput_per_s" "1/s" (float_of_int events /. s_of_ns (total (fun f -> f.elapsed_ns)));
        metric "latency_p50_ms" "ms" (required_percentile "batch latency" ~p:50.0 (batch_ms fleets));
        metric "within_200ms_frac" "ratio" (float_of_int within /. float_of_int (total (fun f -> f.batches)));
        metric "restart_ms" "ms" (median (List.map (fun f -> ms_of_ns f.recover_ns) fleets));
        metric "durable_bytes_per_node" "B"
          (float_of_int (total (fun f -> f.wal_bytes)) /. float_of_int (total (fun f -> f.nodes)));
      ];
  }

(* Traced run: alternate a real provd fleet (WAL counters and write(2)
   bytes read around it, its own spans read back as in [run_fleet]) with
   a traced and an untraced single-domain replay of the same stream. *)
let traced ~wal_dir ~seed ~seconds =
  ignore (run_fleet ~wal_dir ~seed:(fleet_seed ~seed 0));
  let spans = Spans.create () in
  let counter = Obs.Metrics.counter_value in
  let fleets = ref [] and wchars = ref 0 and wal_bytes = ref 0 and flushes = ref 0 in
  let plain_ns = ref 0 and replay_events = ref 0 in
  let started = now_ns () in
  let k = ref 1 in
  while !k <= 3 || now_ns () - started < int_of_float (seconds *. 1e9) do
    let fseed = fleet_seed ~seed !k in
    let w0 = wchar () and b0 = counter Obs.Names.wal_bytes_written in
    let f0 = counter Obs.Names.wal_fsyncs in
    fleets := run_fleet ~wal_dir ~seed:fseed :: !fleets;
    wchars := !wchars + (wchar () - w0);
    wal_bytes := !wal_bytes + (counter Obs.Names.wal_bytes_written - b0);
    flushes := !flushes + (counter Obs.Names.wal_fsyncs - f0);
    let replay_with on =
      Spans.set_enabled spans on;
      let r = replay spans ~wal_dir ~seed:fseed in
      Spans.set_enabled spans false;
      r
    in
    (* Alternate which replay goes first, so neither always follows the
       fleet. *)
    let n, plain =
      if !k mod 2 = 0 then
        let n, _ = replay_with true in
        (n, snd (replay_with false))
      else
        let _, plain = replay_with false in
        (fst (replay_with true), plain)
    in
    plain_ns := !plain_ns + plain;
    replay_events := !replay_events + n;
    incr k
  done;
  let fleets = !fleets in
  let total f = sum (List.map f fleets) in
  let events = total (fun f -> f.events) in
  let failed = total (fun f -> if f.ok then 0 else f.events) in
  let snap_ns = total (fun f -> sum f.snapshot_ns) in
  let batch_ns = total (fun f -> sum f.batch_ns) in
  let lt = analyse (Spans.to_list spans) in
  let us_per_event name = float_of_int (self_of lt name) /. 1e3 /. float_of_int !replay_events in
  let provd_tp = float_of_int events /. s_of_ns (total (fun f -> f.elapsed_ns)) in
  let replay_tp = float_of_int !replay_events /. s_of_ns !plain_ns in
  (* A replayed batch is a root with four children, plus the export on
     every fourth batch. *)
  let tracer_ns_per_batch =
    ((3.0 *. tracer_cost_ns ~children:4) +. tracer_cost_ns ~children:5) /. 4.0
  in
  let replay_batches = (!replay_events + batch_size - 1) / batch_size in
  {
    correct = failed = 0;
    attempted = events;
    failed;
    metrics =
      [
        metric "export.ms_per_publish" "ms"
          (ms_of_ns snap_ns /. float_of_int (total (fun f -> List.length f.snapshot_ns)));
        metric "export.share" "ratio" (float_of_int snap_ns /. float_of_int (snap_ns + batch_ns));
        metric "wal.us_per_event" "us" (us_per_event "wal");
        metric "wal.flushes_per_event" "ratio" (float_of_int !flushes /. float_of_int events);
        metric "wal.write_amplification" "ratio" (float_of_int !wchars /. float_of_int !wal_bytes);
        metric "capture.us_per_event" "us" (us_per_event "capture");
        metric "matview.us_per_event" "us" (us_per_event "matview");
        metric "event_queue.us_per_event" "us" (us_per_event "event_queue");
        metric "provd.batch_fill" "ratio"
          (float_of_int events /. float_of_int (total (fun f -> f.batches) * batch_size));
        metric "provd.overhead_frac" "ratio" (1.0 -. (provd_tp /. replay_tp));
        metric "wal.recover_ms" "ms" (median (List.map (fun f -> ms_of_ns f.recover_ns) fleets));
        metric "trace.overhead_pct" "%"
          (100.0 *. tracer_ns_per_batch *. float_of_int replay_batches /. float_of_int !plain_ns);
        metric "trace.coverage" "ratio" lt.coverage;
      ];
  }
