(* Tests for histograms, summaries, and report formatting. *)

open Leed_stats

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "mean" 0. (Histogram.mean h);
  Alcotest.(check (float 0.)) "p99" 0. (Histogram.percentile h 0.99)

let test_histogram_single () =
  let h = Histogram.create () in
  Histogram.record h 0.5;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 0.5 (Histogram.mean h);
  Alcotest.(check (float 0.01)) "median" 0.5 (Histogram.median h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 0.5 (Histogram.max_value h)

let test_histogram_percentiles () =
  let h = Histogram.create ~precision:0.001 () in
  for i = 1 to 1000 do
    Histogram.record h (float_of_int i)
  done;
  let check q expect =
    let v = Histogram.percentile h q in
    if abs_float (v -. expect) /. expect > 0.01 then
      Alcotest.failf "p%.3f: expected ~%g, got %g" q expect v
  in
  check 0.5 500.;
  check 0.9 900.;
  check 0.99 990.;
  check 1.0 1000.

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record a (float_of_int i)
  done;
  for i = 101 to 200 do
    Histogram.record b (float_of_int i)
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "count" 200 (Histogram.count a);
  Alcotest.(check (float 1.)) "max" 200. (Histogram.max_value a);
  Alcotest.(check (float 1e-9)) "min" 1. (Histogram.min_value a)

let test_histogram_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.record: negative value") (fun () ->
      Histogram.record h (-1.))

let histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in q" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ] in
      let ps = List.map (Histogram.percentile h) qs in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono ps)

let histogram_percentile_bounds =
  QCheck.Test.make ~name:"percentile within [min, max*(1+precision)]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let p50 = Histogram.percentile h 0.5 in
      p50 >= Histogram.min_value h *. 0.99 -. 1e-9 && p50 <= Histogram.max_value h +. 1e-9)

let histogram_mean_matches_list =
  QCheck.Test.make ~name:"histogram mean is exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 100.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let expect = List.fold_left ( +. ) 0. values /. float_of_int (List.length values) in
      abs_float (Histogram.mean h -. expect) < 1e-6)

(* Quantile cursors: a histogram that has been recorded into, queried,
   merged into and reset in any interleaving answers every query exactly
   as a fresh histogram built from the same records — whose first query
   is a plain scan from bucket 0. *)
type hist_op =
  | Rec of float * int
  | Query of float
  | Merge of (float * int) list
  | Reset

let hist_value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (1, float_range 0. 1e-9) (* at or below the 1 ns floor: bucket 0 *);
        (4, float_range 1e-8 2e-5) (* inside the initial 1,024 buckets *);
        (2, float_range 1e-4 10.) (* grows the count array past 1,024 *);
      ])

let hist_record_gen = QCheck.Gen.(pair hist_value_gen (frequency [ (3, return 1); (2, int_range 2 5) ]))

let hist_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun (v, c) -> Rec (v, c)) hist_record_gen);
        ( 5,
          map (fun q -> Query q)
            (oneofl [ 0.; 0.5; 0.95; 0.99; 1.; 0.95; 0.99; 0.25; 0.75; 0.999 ]) );
        (1, map (fun rs -> Merge rs) (list_size (int_range 0 20) hist_record_gen));
        (1, return Reset);
      ])

let print_hist_op = function
  | Rec (v, c) -> Printf.sprintf "rec %h x%d" v c
  | Query q -> Printf.sprintf "q %g" q
  | Merge rs -> Printf.sprintf "merge[%d]" (List.length rs)
  | Reset -> "reset"

let histogram_cursor_matches_fresh =
  QCheck.Test.make ~name:"percentile cursors answer as a fresh histogram" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_hist_op ops))
       QCheck.Gen.(list_size (int_range 1 300) hist_op_gen))
    (fun ops ->
      let fresh records =
        let h = Histogram.create () in
        List.iter (fun (v, count) -> Histogram.record ~count h v) (List.rev records);
        h
      in
      let h = Histogram.create () in
      let records = ref [] in
      List.for_all
        (function
          | Rec (v, count) ->
              Histogram.record ~count h v;
              records := (v, count) :: !records;
              true
          | Query q ->
              let got = Histogram.percentile h q in
              let want = Histogram.percentile (fresh !records) q in
              Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
              || QCheck.Test.fail_reportf "q=%g: cursor %h, fresh %h" q got want
          | Merge rs ->
              let src = fresh rs in
              ignore (Histogram.percentile src 0.5);
              Histogram.merge ~into:h src;
              records := List.rev_append rs !records;
              true
          | Reset ->
              Histogram.reset h;
              records := [];
              true)
        ops)

let test_summary () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32. /. 7.)) (Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2. (Summary.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9. (Summary.max_value s);
  Summary.reset s;
  Alcotest.(check int) "reset count" 0 (Summary.count s)

let summary_mean_bounds =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let s = Summary.create () in
      List.iter (Summary.add s) values;
      Summary.mean s >= Summary.min_value s -. 1e-9 && Summary.mean s <= Summary.max_value s +. 1e-9)

let test_report_formats () =
  Alcotest.(check string) "f1" "3.1" (Report.f1 3.14159);
  Alcotest.(check string) "pct" "42.0%" (Report.pct 0.42);
  Alcotest.(check string) "usec" "116.5" (Report.usec 116.5e-6);
  Alcotest.(check string) "kqps" "860.0" (Report.kqps 860_000.)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "single value" `Quick test_histogram_single;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "negative rejected" `Quick test_histogram_negative_rejected;
        ] );
      ("summary", [ Alcotest.test_case "moments" `Quick test_summary ]);
      ("report", [ Alcotest.test_case "formats" `Quick test_report_formats ]);
      qsuite "properties"
        [
          histogram_percentile_monotone;
          histogram_percentile_bounds;
          histogram_mean_matches_list;
          histogram_cursor_matches_fresh;
          summary_mean_bounds;
        ];
    ]
