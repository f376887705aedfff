(* The traced run's per-layer aggregation.

   The program's [Trace] layer already emits spans for every layer (cat
   net, node, engine, dev, control, cache, client). Holding a whole run's
   trace costs ~270 bytes per event (about 1 GB for one chaos run), so the
   benchmark captures into a bounded ring and folds the events into
   running totals from the dispatch hook, every time half the ring has
   filled. Only events inside the measure window [lo, hi) (virtual
   microseconds) count; [lo] stays infinite until the window opens, so
   set-up traffic is skipped.

   The same hook charges the host time between two dispatches to the
   first event's label group, which is how host ns per event splits by
   [d_label] prefix. *)

module Trace = Leed_trace.Trace

let ring = 1 lsl 18

(* Fixed label groups, so every workload reports the same metric names.
   [main] is work that inherits the root label: unattributed until events
   carry layer tags of their own. *)
let groups = [| "main"; "worker"; "client"; "jbof"; "cache"; "control"; "fault"; "other" |]

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let group_of_label l =
  let has p = starts_with p l in
  if l = "main" then 0
  else if has "worker" || has "chaos:w" then 1
  else if has "client" then 2
  else if has "jbof" then 3
  else if has "cache" then 4
  else if has "control" then 5
  else if has "fault" then 6
  else 7

type t = {
  mutable lo : float;
  mutable hi : float;
  mutable folded : int;  (** events emitted so far that were already folded *)
  cat_events : (string, int ref) Hashtbl.t;
  cat_busy : (string, float ref) Hashtbl.t;  (** summed 'X' span time, µs *)
  counts : (string, int ref) Hashtbl.t;  (** named instants and spans *)
  open_msgs : (int, float) Hashtbl.t;
  open_cmds : (int, float) Hashtbl.t;
  last_exec : (int * int, float * float) Hashtbl.t;  (** track -> exec (ts, dur) *)
  mutable msg_bytes : int;
  client_get : Metric.samples;
  client_put : Metric.samples;
  flight : Metric.samples;
  queue_wait : Metric.samples;
  exec : Metric.samples;
  dev_read : Metric.samples;
  dev_write : Metric.samples;
  mutable dev_bytes_written : int;
  mutable node_get_us : float;
  mutable node_write_us : float;
  mutable copy_us : float;
  (* host time by label group *)
  group_ns : float array;
  group_events : int array;
  label_group : (string, int) Hashtbl.t;
  mutable last_ns : int64;
  mutable last_group : int;
}

let create () =
  {
    lo = infinity;
    hi = infinity;
    folded = 0;
    cat_events = Hashtbl.create 8;
    cat_busy = Hashtbl.create 8;
    counts = Hashtbl.create 32;
    open_msgs = Hashtbl.create 1024;
    open_cmds = Hashtbl.create 1024;
    last_exec = Hashtbl.create 64;
    msg_bytes = 0;
    client_get = Metric.samples ();
    client_put = Metric.samples ();
    flight = Metric.samples ();
    queue_wait = Metric.samples ();
    exec = Metric.samples ();
    dev_read = Metric.samples ();
    dev_write = Metric.samples ();
    dev_bytes_written = 0;
    node_get_us = 0.;
    node_write_us = 0.;
    copy_us = 0.;
    group_ns = Array.make (Array.length groups) 0.;
    group_events = Array.make (Array.length groups) 0;
    label_group = Hashtbl.create 64;
    last_ns = 0L;
    last_group = -1;
  }

(* Open the window at virtual time [lo_s] for [len_s] seconds. *)
let set_window t ~lo_s ~len_s =
  t.lo <- lo_s *. 1e6;
  t.hi <- (lo_s +. len_s) *. 1e6

let bump tbl k = match Hashtbl.find_opt tbl k with Some r -> incr r | None -> Hashtbl.add tbl k (ref 1)

let add_float tbl k x =
  match Hashtbl.find_opt tbl k with Some r -> r := !r +. x | None -> Hashtbl.add tbl k (ref x)

let count t k = match Hashtbl.find_opt t.counts k with Some r -> !r | None -> 0
let cat_events t c = match Hashtbl.find_opt t.cat_events c with Some r -> !r | None -> 0
let cat_busy t c = match Hashtbl.find_opt t.cat_busy c with Some r -> !r | None -> 0.

let int_arg args k = match List.assoc_opt k args with Some (Trace.Int i) -> i | _ -> 0
let bool_arg args k = match List.assoc_opt k args with Some (Trace.Bool b) -> b | _ -> false
let fold_event t (e : Trace.event) =
  let in_window = e.ts >= t.lo && e.ts < t.hi in
  (* Span ends are matched to begins opened inside the window, whenever
     they land. *)
  match (e.cat, e.ph) with
  | "net", 'e' -> (
      match Hashtbl.find_opt t.open_msgs e.id with
      | Some b ->
          Hashtbl.remove t.open_msgs e.id;
          if bool_arg e.args "dropped" then bump t.counts "net.dropped"
          else if not (bool_arg e.args "consumed") then Metric.add t.flight (e.ts -. b)
      | None -> ())
  | "engine", 'e' -> (
      match Hashtbl.find_opt t.open_cmds e.id with
      | Some b -> (
          Hashtbl.remove t.open_cmds e.id;
          (* The command's exec span is the last one closed on this
             SSD's row: execution, token release and completion run
             back to back without yielding. *)
          match Hashtbl.find_opt t.last_exec (e.pid, e.tid) with
          | Some (ts, dur) when ts >= b ->
              Metric.add t.queue_wait (ts -. b);
              Metric.add t.exec dur;
              if ts > b then bump t.counts "engine.deferred";
              bump t.counts "engine.cmds"
          | _ -> ())
      | None -> ())
  | "engine", 'X' ->
      Hashtbl.replace t.last_exec (e.pid, e.tid) (e.ts, e.dur);
      if in_window then begin
        bump t.cat_events "engine";
        add_float t.cat_busy "engine" e.dur
      end
  | _ when not in_window -> ()
  | cat, ph -> (
      bump t.cat_events cat;
      if ph = 'X' then add_float t.cat_busy cat e.dur;
      match (cat, ph, e.name) with
      | "client", 'X', "get" -> Metric.add t.client_get e.dur
      | "client", 'X', "put" -> Metric.add t.client_put e.dur
      | "net", 'b', _ ->
          Hashtbl.replace t.open_msgs e.id e.ts;
          bump t.counts "net.msgs";
          t.msg_bytes <- t.msg_bytes + int_arg e.args "size"
      | "engine", 'b', _ ->
          Hashtbl.replace t.open_cmds e.id e.ts;
          if e.name = "cmd.get" then bump t.counts "engine.gets"
          else if e.name = "cmd.put" then bump t.counts "engine.puts"
      | "dev", 'X', "read" -> Metric.add t.dev_read e.dur
      | "dev", 'X', name when starts_with "write" name ->
          Metric.add t.dev_write e.dur;
          t.dev_bytes_written <- t.dev_bytes_written + int_arg e.args "bytes"
      | "node", 'X', "get" ->
          bump t.counts "node.get";
          if bool_arg e.args "shipped" then bump t.counts "node.shipped";
          t.node_get_us <- t.node_get_us +. e.dur
      | "node", 'X', "write" ->
          bump t.counts "node.write";
          t.node_write_us <- t.node_write_us +. e.dur
      | "control", 'X', "copy.arc" ->
          bump t.counts "control.copy.arc";
          t.copy_us <- t.copy_us +. e.dur
      | _, ('X' | 'i'), name -> bump t.counts (cat ^ "." ^ name)
      | _ -> ())

(* Fold every event emitted since the last fold. The ring keeps the
   newest [ring] events, and folds happen every [ring / 2], so none is
   lost. *)
let fold t =
  let emitted = Trace.count () + Trace.dropped () in
  let fresh = emitted - t.folded in
  if fresh > 0 then begin
    let skip = Trace.count () - fresh in
    List.iteri (fun i e -> if i >= skip then fold_event t e) (Trace.events ());
    t.folded <- emitted
  end

(* Leave the time since the last dispatch out of every group: the
   benchmark itself spent it. *)
let skip_host t = t.last_ns <- Monotonic_clock.now ()

let charge_host t label =
  let now = Monotonic_clock.now () in
  if t.last_group >= 0 then
    t.group_ns.(t.last_group) <- t.group_ns.(t.last_group) +. Int64.to_float (Int64.sub now t.last_ns);
  let g =
    match Hashtbl.find_opt t.label_group label with
    | Some g -> g
    | None ->
        let g = group_of_label label in
        Hashtbl.add t.label_group label g;
        g
  in
  t.group_events.(g) <- t.group_events.(g) + 1;
  t.last_group <- g;
  t.last_ns <- now

(* The dispatch hook of a traced run. *)
let on_dispatch t (d : Leed_sim.Sim.dispatch) =
  charge_host t d.d_label;
  if Trace.count () + Trace.dropped () - t.folded >= ring / 2 then begin
    fold t;
    skip_host t
  end

let start () = Trace.start ~limit:ring ()

(* Close the capture: fold the tail and drop the ring's contents. *)
let finish t =
  fold t;
  Trace.stop ();
  Trace.start ~limit:1 ();
  Trace.stop ()
