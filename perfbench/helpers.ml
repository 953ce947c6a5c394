(* Measurement helpers shared by the three workloads: order statistics,
   the benchmark's own span recorder and self-time arithmetic, readers
   for /proc/self/{io,status}, and the result line. *)

let now_ns () = Int64.to_int (Provkit_util.Timing.now_ns ())

let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* --- order statistics ------------------------------------------------ *)

(* The program's own percentile (linear interpolation between order
   statistics), reported only when at least ten samples lie beyond the
   lower of the two it interpolates between: with fewer, one stray
   sample moves a tail estimate, so the caller gets [None] instead.
   [p] is in percent, as for [Stats.percentile]. *)
let percentile ~p samples =
  if not (p > 0.0 && p < 100.0) then invalid_arg "Helpers.percentile: p must be in (0, 100)";
  let n = Array.length samples in
  let beyond = n - 1 - int_of_float (Float.floor (p /. 100.0 *. float_of_int (n - 1))) in
  if n = 0 || beyond < 10 then None
  else Some (Provkit_util.Stats.percentile p (Array.to_list samples))

let median = function
  | [] -> invalid_arg "Helpers.median: no samples"
  | xs -> Provkit_util.Stats.percentile 50.0 xs

(* Growable float sample buffer: recording a sample allocates nothing
   until the buffer doubles. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* --- spans and self time --------------------------------------------- *)

(* Length of the part of [lo, hi) covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, (cur_a, cur_b)) (a, b) ->
        if a > cur_b then (total + (cur_b - cur_a), (a, b)) else (total, (cur_a, max cur_b b)))
      (0, (lo, lo))
      sorted
  in
  total + (snd last - fst last)

(* A layer's self time: its span's duration minus the part of that
   interval its direct children cover. *)
let self_time ~lo ~hi children = hi - lo - covered ~lo ~hi children

type span = { name : string; parent : int; start : int; stop : int }
(** [parent] is the index of the enclosing span, [-1] for a root. *)

(* The benchmark's own tracer: spans around the calls it makes into each
   layer.  When disabled a call costs one branch. *)
module Spans = struct
  type t = {
    mutable on : bool;
    mutable spans : span array;
    mutable len : int;
    mutable stack : int list;
  }

  let dummy = { name = ""; parent = -1; start = 0; stop = 0 }
  let create () = { on = false; spans = Array.make 4096 dummy; len = 0; stack = [] }
  let set_enabled t b = t.on <- b
  let clear t = t.len <- 0

  let with_span t name f =
    if not t.on then f ()
    else begin
      if t.len = Array.length t.spans then begin
        let bigger = Array.make (2 * t.len) dummy in
        Array.blit t.spans 0 bigger 0 t.len;
        t.spans <- bigger
      end;
      let i = t.len in
      t.len <- i + 1;
      let parent = match t.stack with [] -> -1 | p :: _ -> p in
      t.stack <- i :: t.stack;
      let start = now_ns () in
      let finish () =
        t.spans.(i) <- { name; parent; start; stop = now_ns () };
        t.stack <- List.tl t.stack
      in
      Fun.protect ~finally:finish f
    end

  let to_list t = Array.to_list (Array.sub t.spans 0 t.len)
end

(* For alternating traced and untraced blocks: each call switches the
   recorder on for the first [block] calls, off for the next [block],
   and so on, and says whether it is on. *)
let alternate spans ~block =
  let calls = ref 0 in
  fun () ->
    let on = !calls / block mod 2 = 0 in
    incr calls;
    Spans.set_enabled spans on;
    on

(* What the recorder adds to one root span with [children] child spans,
   in ns: the same nesting timed recording and not recording.  Compared
   with the untraced cost of the work a root covers this gives the
   tracing overhead; a direct traced-against-untraced comparison of the
   workload itself is lost in the machine's run-to-run noise. *)
let tracer_cost_ns ~children =
  let t = Spans.create () in
  let n = 20_000 in
  let run on =
    Spans.set_enabled t on;
    Spans.clear t;
    let t0 = now_ns () in
    for _ = 1 to n do
      Spans.with_span t "root" (fun () ->
          for _ = 1 to children do
            Spans.with_span t "child" ignore
          done)
    done;
    now_ns () - t0
  in
  let traced = run true in
  let plain = run false in
  float_of_int (max 0 (traced - plain)) /. float_of_int n

type layer_times = {
  self_ns : (string * int) list;  (** summed self time per span name *)
  coverage : float;
      (** share of all root spans' time covered by their children,
          weighted by root duration *)
}

let analyse spans =
  let arr = Array.of_list spans in
  let children = Array.make (Array.length arr) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    arr;
  let self = Hashtbl.create 16 in
  let root_ns = ref 0 and covered_ns = ref 0 in
  Array.iteri
    (fun i s ->
      let kids = List.map (fun k -> (arr.(k).start, arr.(k).stop)) children.(i) in
      let own = self_time ~lo:s.start ~hi:s.stop kids in
      let prev = Option.value ~default:0 (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (prev + own);
      if s.parent < 0 then begin
        root_ns := !root_ns + (s.stop - s.start);
        covered_ns := !covered_ns + (s.stop - s.start - own)
      end)
    arr;
  {
    self_ns = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []);
    coverage = float_of_int !covered_ns /. float_of_int (max 1 !root_ns);
  }

let self_of lt name = Option.value ~default:0 (List.assoc_opt name lt.self_ns)

(* --- /proc readers --------------------------------------------------- *)

(* "key: value" lines, as in /proc/self/io and /proc/self/status.
   Values keep only their leading integer ("1234 kB" -> 1234); lines
   without one are skipped. *)
let parse_proc_fields text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i -> (
           let key = String.trim (String.sub line 0 i) in
           let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           let digits =
             match String.index_opt rest ' ' with None -> rest | Some j -> String.sub rest 0 j
           in
           match int_of_string_opt digits with Some v -> Some (key, v) | None -> None))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let proc_field file key =
  match List.assoc_opt key (parse_proc_fields (read_file file)) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s has no %s field" file key)

(* Bytes this process has passed to write(2) so far. *)
let wchar () = proc_field "/proc/self/io" "wchar"

let peak_rss_mb () = float_of_int (proc_field "/proc/self/status" "VmHWM") /. 1024.0

(* --- files ----------------------------------------------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let file_size path = (Unix.stat path).Unix.st_size

let tree_size dir =
  Array.fold_left (fun acc f -> acc + file_size (Filename.concat dir f)) 0 (Sys.readdir dir)

(* Runs this executable again with [args] and returns the
   space-separated fields of what it prints. *)
let run_self args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char ' ' (String.trim out)
  | _ -> failwith (Printf.sprintf "%s %s failed" exe (String.concat " " args))

(* --- results --------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let json_number x =
  if not (Float.is_finite x) then failwith "non-finite metric value";
  Printf.sprintf "%.17g" x

let result_to_json r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value) m.m_unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " metrics)

(* A percentile that must exist: the workloads size their runs so every
   reported tail has its ten samples. *)
let required_percentile what ~p samples =
  match percentile ~p (Samples.to_array samples) with
  | Some v -> v
  | None ->
    failwith (Printf.sprintf "%s: %d samples are too few for a p%.0f" what (Samples.length samples) p)

(* --- run structure ----------------------------------------------------- *)

(* Runs [rounds] rounds.  Round r gives [step] a fresh state from
   [fresh] until [busy] says it holds its share of [seconds], then calls
   [between], and the per-round states are returned.  Work sampled in
   [between] (set-ups, restarts) is spread over the whole run, so its
   median is not taken in one patch of the machine's varying speed. *)
let in_rounds ~rounds ~seconds ~fresh ~busy ~step ~between =
  let target = int_of_float (seconds *. 1e9 /. float_of_int rounds) in
  let done_ = ref [] in
  for _ = 1 to rounds do
    let st = fresh () in
    while busy st < target do
      step st
    done;
    between ();
    done_ := st :: !done_
  done;
  List.rev !done_

(* One round of a closed loop with zero think time. *)
type loop = {
  lat_ms : Samples.t;  (** per request *)
  mutable attempted : int;
  mutable failed : int;
  mutable good : int;  (** answered correctly within 200 ms *)
  mutable busy_ns : int;  (** time inside requests; checks excluded *)
}

let new_loop () = { lat_ms = Samples.create (); attempted = 0; failed = 0; good = 0; busy_ns = 0 }

(* [correct] is false for a wrong answer; [complete] is false for a
   degraded one (a truncated budgeted answer), which still counts as
   answered but not as answered correctly. *)
let record l ~correct ~complete dt =
  l.attempted <- l.attempted + 1;
  if not correct then l.failed <- l.failed + 1;
  if correct && complete && dt <= 200_000_000 then l.good <- l.good + 1;
  l.busy_ns <- l.busy_ns + dt;
  Samples.add l.lat_ms (ms_of_ns dt)

let sum = List.fold_left ( + ) 0

(* Throughput over the whole run's busy time, the median latency of all
   of its requests (or [latency_ms], where a workload defines its own),
   and the share answered correctly within 200 ms. *)
let loop_metrics ?latency_ms what rounds =
  let total f = sum (List.map f rounds) in
  let pooled_median () =
    let lat = Samples.create () in
    List.iter (fun l -> Array.iter (Samples.add lat) (Samples.to_array l.lat_ms)) rounds;
    required_percentile what ~p:50.0 lat
  in
  let attempted = total (fun l -> l.attempted) in
  [
    metric "throughput_per_s" "1/s" (float_of_int attempted /. s_of_ns (total (fun l -> l.busy_ns)));
    metric "latency_p50_ms" "ms" (match latency_ms with Some v -> v | None -> pooled_median ());
    metric "within_200ms_frac" "ratio" (float_of_int (total (fun l -> l.good)) /. float_of_int attempted);
  ]

let loop_counts rounds =
  (sum (List.map (fun l -> l.attempted) rounds), sum (List.map (fun l -> l.failed) rounds))

