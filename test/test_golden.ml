(* Golden pin of the simulated output.

   A small fixed-seed YCSB-B run on LEED, reduced to one digest over
   every op's simulated latency (in completion order, bit-exact) and the
   window's counters. A host-side change — a faster data structure, a
   cheaper codec, fewer allocations — must leave this digest untouched.
   A change that means to alter simulated behaviour updates the pin and
   says so in CHANGES.md. Host-side counts (events dispatched, words
   allocated) are deliberately left out. *)

open Leed_sim
open Leed_workload
module Backend = Leed_core.Backend
module Exp_common = Leed_experiments.Exp_common

let nkeys = 1_000
let workers = 32
let window = 0.01

(* The digest input: "<latency bits>;" per op, then the counters. *)
let observe () =
  let out = Buffer.create (64 * 1024) in
  Sim.run (fun () ->
      let setup = Exp_common.setup_of_name ~nclients:2 "leed" in
      Exp_common.preload setup ~nkeys ~value_size:1008;
      let gen = Workload.generator ~object_size:1024 (Workload.ycsb_b ()) ~nkeys (Rng.create 9) in
      let execute op =
        let t0 = Sim.now () in
        Exp_common.rr_execute setup op;
        Printf.bprintf out "%h;" (Sim.now () -. t0)
      in
      let m =
        Backend.measure ~label:"golden" setup.Exp_common.backend (fun () ->
            Workload.Driver.closed_loop ~clients:workers ~duration:window ~gen ~execute ())
      in
      let c = m.Backend.counters in
      Printf.bprintf out
        "\nops=%d dur=%h p99=%h p999=%h nvme=%d nacks=%d retries=%d hedges=%d hedge_wins=%d \
         watts=%h now=%h"
        m.Backend.ops m.Backend.duration m.Backend.p99 m.Backend.p999 m.Backend.nvme_accesses
        c.Backend.nacks c.Backend.retries c.Backend.hedges c.Backend.hedge_wins m.Backend.watts
        (Sim.now ());
      m.Backend.ops)
  |> fun ops -> (ops, Buffer.contents out)

let test_ycsb_b_digest () =
  let ops, text = observe () in
  Alcotest.(check int) "ops" 2603 ops;
  Alcotest.(check string) "digest" "d0bc0aff02dcc24f22b067d01dfc1488" (Digest.to_hex (Digest.string text))

let () =
  Alcotest.run "golden"
    [ ("ycsb-b", [ Alcotest.test_case "leed simulated output pinned" `Quick test_ycsb_b_digest ]) ]
