(* The benchmark's measured executable.

     perfbench generate --workdir DIR
     perfbench measure --workload W --seed N --seconds S --trace 0|1 --workdir DIR
     perfbench sample --workload W --workdir DIR --image PATH --first QUERY

   [generate] runs the simulators and caches the read workloads' inputs;
   [measure] runs one workload and prints its result as one JSON line;
   a traced run prints its own workload's per-layer metrics only.
   [sample] is run by [measure] itself: one set-up and one restart of a
   read workload in a fresh process.  perfbench/run.py builds this
   program and drives the first two steps. *)

open Perfbench_lib
module H = Helpers

(* The program's observability is pinned to its shipped default (on),
   so a changed environment cannot change what is measured. *)
let pin_observability () =
  Provkit_obs.Metrics.set_enabled true;
  Provkit_obs.Trace.set_capacity 8192

let is_read_workload w = List.mem w [ "relational-index"; "relational-scan"; "usecase-queries" ]

let sample ~workload ~workdir ~image ~first =
  if not (is_read_workload workload) then failwith (Printf.sprintf "no samples for workload %S" workload);
  pin_observability ();
  let inputs = Inputs.load ~workdir in
  if workload = "usecase-queries" then Usecase.sample_process ~path:image ~first inputs
  else Reads.sample_process ~path:image ~first_sql:first inputs

let measure ~workload ~seed ~seconds ~trace ~workdir =
  pin_observability ();
  H.mkdir_p workdir;
  let scratch = Filename.concat workdir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  H.remove_tree scratch;
  H.mkdir_p scratch;
  let result =
    Fun.protect
      ~finally:(fun () -> H.remove_tree scratch)
      (fun () ->
        let wal_dir = Filename.concat scratch "wal" in
        let sample ~image ~first =
          H.run_self
            [ "sample"; "--workload"; workload; "--workdir"; workdir; "--image"; image; "--first"; first ]
        in
        match (workload, trace) with
        | "provd-ingest", false -> Ingest.e2e ~wal_dir ~seed ~seconds
        | "provd-ingest", true -> Ingest.traced ~wal_dir ~seed ~seconds
        | ("relational-index" | "relational-scan"), tr ->
          let mix = if workload = "relational-index" then Reads.index_mix else Reads.scan_mix in
          let inputs = Inputs.load ~workdir in
          if tr then Reads.traced ~mix ~sample ~scratch ~inputs ~seed ~seconds
          else Reads.e2e ~mix ~sample ~scratch ~inputs ~seed ~seconds
        | "usecase-queries", tr ->
          let inputs = Inputs.load ~workdir in
          if tr then Usecase.traced ~sample ~scratch ~inputs ~seed ~seconds
          else Usecase.e2e ~sample ~scratch ~inputs ~seed ~seconds
        | w, _ -> failwith (Printf.sprintf "unknown workload %S" w))
  in
  print_endline (H.result_to_json result)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and workdir = ref ".bench_work" in
  let image = ref "" and first = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--workdir", Arg.Set_string workdir, "DIR inputs and scratch files");
      ("--image", Arg.Set_string image, "PATH relational image a sample saves or loads");
      ("--first", Arg.Set_string first, "QUERY first query a sample's restart answers");
    ]
  in
  let command = ref "" in
  Arg.parse spec (fun a -> command := a) "perfbench (generate|measure|sample) [options]";
  match !command with
  | "generate" -> Inputs.generate ~workdir:!workdir
  | "measure" ->
    measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~workdir:!workdir
  | "sample" -> sample ~workload:!workload ~workdir:!workdir ~image:!image ~first:!first
  | c ->
    prerr_endline (Printf.sprintf "perfbench: unknown command %S" c);
    exit 2
