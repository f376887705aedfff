(* Tests of the benchmark's own rules: metric naming, the percentile
   support rule, read validation, refusal accounting, and agreement
   between the catalog and BENCHMARK.json. *)

open Perfbench_lib

let test_names () =
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("valid name " ^ name) true (Metric.valid_name name);
      Alcotest.(check bool) ("valid unit " ^ unit_) true (Metric.valid_unit unit_))
    (Catalog.end_to_end @ Catalog.per_layer);
  let names = List.map fst (Catalog.end_to_end @ Catalog.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Metric.valid_name bad))
    [ ""; ".lead"; "has space"; "slash/name"; "p99\xc2\xb5s"; String.make 65 'a' ]

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_support () =
  let check = Alcotest.(check (option (float 0.))) in
  check "p99.9 of 10,000 has 10 beyond" (Some 9990.) (Metric.percentile (sorted 10_000) 0.999);
  check "p99.9 of 9,999 is unsupported" None (Metric.percentile (sorted 9_999) 0.999);
  check "p99 of 1,000" (Some 990.) (Metric.percentile (sorted 1_000) 0.99);
  check "p99 of 999 is unsupported" None (Metric.percentile (sorted 999) 0.99);
  check "median of 21" (Some 11.) (Metric.percentile (sorted 21) 0.5);
  check "empty" None (Metric.percentile [||] 0.5)

let payload id version = Some (Leed_workload.Workload.value_for ~id ~version ~size:64)

let test_payload () =
  let ok = Alcotest.(check bool) in
  ok "own id, issued version" true (Result.is_ok (Payload.check ~id:7 ~max_version:3 (payload 7 3)));
  ok "preloaded version 0" true (Result.is_ok (Payload.check ~id:7 ~max_version:0 (payload 7 0)));
  ok "wrong id" true (Result.is_error (Payload.check ~id:7 ~max_version:3 (payload 8 3)));
  ok "version never issued" true (Result.is_error (Payload.check ~id:7 ~max_version:3 (payload 7 4)));
  ok "absent key" true (Result.is_error (Payload.check ~id:7 ~max_version:3 None));
  ok "no tag" true
    (Result.is_error (Payload.check ~id:7 ~max_version:3 (Some (Bytes.of_string "garbage....."))));
  ok "truncated tag" true
    (Result.is_error (Payload.check ~id:7 ~max_version:3 (Some (Bytes.of_string "v7:3"))))

let test_error_rate () =
  let t = Outcome.create () in
  Alcotest.(check (option int)) "success passes through" (Some 1) (Outcome.attempt t (fun () -> 1));
  Alcotest.(check (option int)) "unavailable is refused" None
    (Outcome.attempt t (fun () -> raise (Leed_core.Client.Unavailable "retry limit exceeded")));
  Alcotest.(check int) "attempted" 2 t.Outcome.attempted;
  Alcotest.(check int) "failed" 1 (Outcome.failed t);
  Alcotest.(check (float 0.)) "error rate" 0.5 (Outcome.error_rate t);
  Alcotest.check_raises "other exceptions propagate" Exit (fun () ->
      ignore (Outcome.attempt t (fun () -> raise Exit)))

(* BENCHMARK.json must declare exactly the catalog's metrics and units. *)
let test_benchmark_json () =
  let module J = Leed_trace.Trace.Json in
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let fields = function J.Obj kv -> kv | _ -> Alcotest.fail "expected an object" in
  let doc = match J.parse text with Ok d -> fields d | Error e -> Alcotest.fail e in
  let declared key =
    match List.assoc_opt key doc with
    | Some (J.Arr ms) ->
        List.map
          (fun m ->
            let m = fields m in
            match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
            | Some (J.Str n), Some (J.Str u) -> (n, u)
            | _ -> Alcotest.fail ("bad metric in " ^ key))
          ms
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Catalog.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Catalog.per_layer (declared "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "percentile support" `Quick test_percentile_support;
          Alcotest.test_case "payload validator" `Quick test_payload;
          Alcotest.test_case "error rate counts Unavailable" `Quick test_error_rate;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_benchmark_json;
        ] );
    ]
