(* The read workloads' inputs: the recorded browser event stream of the
   standard 79-day dataset (Dataset.default, seed 42) plus the query
   pools experiment E3 draws from.  [generate] runs the user and web
   simulators once in its own process and caches the result under the
   work directory; the measured process only [load]s it, so its set-up
   time and memory describe the provenance system and not the
   simulator.  The history is the same for every run: the size of a
   simulated history varies by a few percent with its seed, and set-up
   and restart times with it.  A run's seed draws the queries asked of
   it. *)

type t = {
  events : Browser.Event.t list;
  searches : string array;  (** queries the simulated user typed *)
  topics : string array;  (** topic names, the rest of E3's query pool *)
  duals : (string * string) array;  (** (focus topic, other search term) *)
  downloads : int array;  (** engine download ids *)
}

let trace_file = "trace.evl"
let pools_file = "pools.tsv"

let dir ~workdir = Filename.concat workdir "inputs/standard-79d"

let check_field s =
  if String.contains s '\t' || String.contains s '\n' then
    failwith (Printf.sprintf "pool entry %S cannot be stored tab-separated" s);
  s

let write_pools path t =
  Out_channel.with_open_bin path (fun oc ->
      let line fields = output_string oc (String.concat "\t" (List.map check_field fields) ^ "\n") in
      Array.iter (fun q -> line [ "search"; q ]) t.searches;
      Array.iter (fun q -> line [ "topic"; q ]) t.topics;
      Array.iter (fun (f, o) -> line [ "dual"; f; o ]) t.duals;
      Array.iter (fun d -> line [ "download"; string_of_int d ]) t.downloads)

let read_pools path events =
  let searches = ref [] and topics = ref [] and duals = ref [] and downloads = ref [] in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ "" ] -> ()
         | [ "search"; q ] -> searches := q :: !searches
         | [ "topic"; q ] -> topics := q :: !topics
         | [ "dual"; f; o ] -> duals := (f, o) :: !duals
         | [ "download"; d ] -> downloads := int_of_string d :: !downloads
         | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line));
  let arr r = Array.of_list (List.rev !r) in
  { events; searches = arr searches; topics = arr topics; duals = arr duals; downloads = arr downloads }

let generate ~workdir =
  let final = dir ~workdir in
  if not (Sys.file_exists final) then begin
    let ds = Harness.Dataset.default () in
    let web = ds.Harness.Dataset.web in
    let trace = ds.Harness.Dataset.trace in
    let topic_name i = Webmodel.Topic.name (Webmodel.Web_graph.topic web i) in
    let t =
      {
        events = Browser.Engine.event_log ds.Harness.Dataset.engine;
        searches =
          Array.of_list
            (List.map (fun (e : Browser.User_model.search_episode) -> e.query) trace.searches);
        topics = Array.init (Webmodel.Web_graph.topic_count web) topic_name;
        duals =
          Array.of_list
            (List.map
               (fun (d : Browser.User_model.dual_episode) -> (topic_name d.focus_topic, d.other_term))
               trace.duals);
        downloads =
          Array.of_list
            (List.map
               (fun (d : Browser.User_model.download_episode) -> d.download_id)
               trace.downloads);
      }
    in
    (* Written aside and renamed into place, so an interrupted generator
       never leaves a half-written cache behind. *)
    let tmp = Printf.sprintf "%s.tmp-%d" final (Unix.getpid ()) in
    Helpers.remove_tree tmp;
    Helpers.mkdir_p tmp;
    Browser.Event_codec.save ~path:(Filename.concat tmp trace_file) t.events;
    write_pools (Filename.concat tmp pools_file) t;
    Sys.rename tmp final
  end

let load ~workdir =
  let d = dir ~workdir in
  if not (Sys.file_exists d) then
    failwith (Printf.sprintf "no inputs under %s: run the generate step first" workdir);
  let events = Browser.Event_codec.load ~path:(Filename.concat d trace_file) in
  let t = read_pools (Filename.concat d pools_file) events in
  if t.searches = [||] || t.duals = [||] || t.downloads = [||] then
    failwith "the trace has an empty query pool";
  t
