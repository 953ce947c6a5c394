(* Unit tests for the benchmark's own helpers: percentiles refuse thin
   tails, self time subtracts exactly the covered part of a span, and
   the /proc/self/io parser reads the fields the WAL figures use. *)

open Perfbench_lib.Helpers

let check name cond = if not cond then failwith ("test_helpers: " ^ name)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let close_to want = function Some v -> abs_float (v -. want) < 1e-9 | None -> false

let test_percentile () =
  (* p90 of 1..n interpolates at rank 0.9 (n - 1) and keeps the samples
     above its lower neighbour beyond it: 10 at n = 92, 9 at n = 91. *)
  check "p90 of 92 samples" (close_to 82.9 (percentile ~p:90.0 (samples 92)));
  check "p90 of 91 samples is refused" (percentile ~p:90.0 (samples 91) = None);
  check "p50 of 20 samples" (close_to 10.5 (percentile ~p:50.0 (samples 20)));
  check "p50 of 19 samples is refused" (percentile ~p:50.0 (samples 19) = None);
  check "empty is refused" (percentile ~p:50.0 [||] = None);
  let shuffled = Array.init 200 (fun i -> float_of_int ((i * 77) mod 200)) in
  check "order does not matter" (close_to 99.5 (percentile ~p:50.0 shuffled));
  check "input is not sorted in place" (shuffled.(1) = 77.0);
  check "median of even count" (median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check "median of odd count" (median [ 5.0; 1.0; 3.0 ] = 3.0)

let test_self_time () =
  check "no children" (self_time ~lo:0 ~hi:100 [] = 100);
  check "disjoint children" (self_time ~lo:0 ~hi:100 [ (10, 20); (30, 50) ] = 70);
  check "overlapping children count once" (self_time ~lo:0 ~hi:100 [ (10, 40); (30, 60) ] = 50);
  check "nested children count once" (self_time ~lo:0 ~hi:100 [ (10, 90); (20, 30) ] = 20);
  check "children clipped to the span" (self_time ~lo:0 ~hi:100 [ (-50, 10); (90, 150) ] = 80);
  check "full cover" (self_time ~lo:0 ~hi:100 [ (0, 100) ] = 0);
  let spans =
    [
      { name = "root"; parent = -1; start = 0; stop = 100 };
      { name = "a"; parent = 0; start = 0; stop = 60 };
      { name = "b"; parent = 0; start = 60; stop = 90 };
      { name = "c"; parent = 2; start = 70; stop = 80 };
    ]
  in
  let lt = analyse spans in
  check "root self" (self_of lt "root" = 10);
  check "leaf self" (self_of lt "a" = 60);
  check "inner self" (self_of lt "b" = 20);
  check "coverage" (abs_float (lt.coverage -. 0.9) < 1e-9);
  let rec_ = Spans.create () in
  Spans.with_span rec_ "off" (fun () -> ());
  check "disabled recorder records nothing" (Spans.to_list rec_ = []);
  Spans.set_enabled rec_ true;
  Spans.with_span rec_ "outer" (fun () -> Spans.with_span rec_ "inner" (fun () -> ()));
  (match Spans.to_list rec_ with
  | [ o; i ] ->
    check "outer is a root" (o.parent = -1 && o.name = "outer");
    check "inner nests" (i.parent = 0 && i.start >= o.start && i.stop <= o.stop)
  | _ -> check "two spans" false)

let test_proc_io () =
  let text =
    "rchar: 3980\nwchar: 17201536\nsyscr: 9\nsyscw: 0\nread_bytes: 0\n\
     write_bytes: 4096\ncancelled_write_bytes: 0\n"
  in
  let fields = parse_proc_fields text in
  check "wchar" (List.assoc_opt "wchar" fields = Some 17201536);
  check "write_bytes" (List.assoc_opt "write_bytes" fields = Some 4096);
  check "all seven fields" (List.length fields = 7);
  check "units are dropped" (parse_proc_fields "VmHWM:\t  117000 kB\n" = [ ("VmHWM", 117000) ]);
  check "malformed lines are skipped" (parse_proc_fields "garbage\nName:\tperfbench\n" = []);
  check "live wchar grows" (
    let before = wchar () in
    print_string "";
    flush stdout;
    wchar () >= before)

let () =
  test_percentile ();
  test_self_time ();
  test_proc_io ();
  print_endline "test_helpers: ok"
