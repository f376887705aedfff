(* Host-time measurement.

   The benchmark runs on shared hardware whose speed swings widely: the
   same 50 ms of work measured 40 times in a row spans a factor of two,
   and a run a few minutes later can find the whole host 30 % slower.
   The noise is correlated over tens of milliseconds, so the benchmark
   measures it alongside the work. Each measure window is cut into
   slices of virtual time; after every slice the benchmark times a fixed
   reference run; a slice's host cost per event is divided by the time of
   the reference run that follows it. The median of these ratios over all
   slices, times the reference's nominal time, is the cost per event at a
   fixed host speed. Events per operation is an exact simulated count, so
   ops per host second follows. *)

module Sim = Leed_sim.Sim

(* Host CPU time of this process. The host metrics are clock readings by
   design; no simulated value ever depends on them.
   simlint: allow wall-clock *)
let cpu () = Sys.time ()

(* Host and scheduler counters at one instant. Read inside a simulation
   (the dispatch hook runs with the engine current). *)
type mark = { m_cpu : float; m_events : int; m_spawns : int; m_minor : float; m_promoted : float }

let mark () =
  let gc = Gc.quick_stat () in
  {
    m_cpu = cpu ();
    m_events = Sim.events_dispatched ();
    m_spawns = Sim.processes_spawned ();
    m_minor = gc.Gc.minor_words;
    m_promoted = gc.Gc.promoted_words;
  }

(* A fixed piece of work that no change to the repository can speed up:
   a pseudo-random read-modify-write walk over a 1 MB array, memory-bound
   like the simulator. It allocates nothing, so the program's heap (and
   its garbage collector) cannot change its cost; only the host's speed
   at the time can. *)
let reference_iterations = 100_000
let scratch_words = 1 lsl 17

let reference scratch =
  let mask = scratch_words - 1 in
  let idx = ref 1 and acc = ref 0 in
  for i = 1 to reference_iterations do
    idx := ((!idx * 1103515245) + 12345) land mask;
    let j = !idx in
    Array.unsafe_set scratch j (Array.unsafe_get scratch j lxor i);
    acc := !acc + Array.unsafe_get scratch (j lxor 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* About what one reference run takes on the 2-core container the
   benchmark was defined on. Host times are reported at that speed. The
   constant only sets the unit; parent and child runs share it. *)
let reference_nominal = 0.0005

(* A measure window of [len] simulated seconds cut into [slices] slices,
   watched from the dispatch hook once [start] has opened it. *)
type window = {
  len : float;
  slice : float;
  mutable next_slice : float;
  mutable close_at : float;
  mutable opened : mark option;
  mutable closed : mark option;
  mutable max_pending : int;  (** high-water mark of pending events when the window closed *)
  mutable marks : mark list;  (** slice boundaries, newest first *)
  mutable refs : float list;  (** CPU seconds of each reference run *)
  scratch : int array;
}

let window ~len ~slices =
  {
    len;
    slice = len /. float_of_int slices;
    next_slice = infinity;
    close_at = infinity;
    opened = None;
    closed = None;
    max_pending = 0;
    marks = [];
    refs = [];
    scratch = Array.make scratch_words 0;
  }

(* Open the window at virtual time [at] (the current instant). *)
let start w ~at =
  let m = mark () in
  w.opened <- Some m;
  w.marks <- [ m ];
  w.close_at <- at +. w.len;
  w.next_slice <- at +. w.slice

(* Watch the window from the dispatch hook. Returns whether a reference
   run just took place, so a caller timing events can leave it out. *)
let on_dispatch w =
  match (w.opened, w.closed) with
  | Some _, None when Sim.reached w.close_at ->
      let m = mark () in
      w.closed <- Some m;
      w.marks <- m :: w.marks;
      w.max_pending <- Sim.max_pending_events ();
      false
  | Some _, None when Sim.reached w.next_slice ->
      w.next_slice <- w.next_slice +. w.slice;
      let m = mark () in
      reference w.scratch;
      let after = cpu () in
      w.refs <- (after -. m.m_cpu) :: w.refs;
      (* the next slice starts after the reference run *)
      w.marks <- { m with m_cpu = after } :: m :: w.marks;
      true
  | _ -> false

let bounds w =
  match (w.opened, w.closed) with
  | Some o, Some c -> (o, c)
  | _ -> failwith "Host.bounds: the measure window never closed"

(* Each slice's CPU time per event, divided by the CPU time of the
   reference run that follows it. Marks are newest first: a slice ends at
   a boundary mark [a] and starts at the mark [b] left after the previous
   reference run. The last slice (closed by the window, not followed by a
   reference run) is left out. *)
let ratios w =
  let rec go acc marks refs =
    match (marks, refs) with
    | _ :: a :: (b :: _ as rest), r :: refs when a.m_events > b.m_events ->
        go (((a.m_cpu -. b.m_cpu) /. float_of_int (a.m_events - b.m_events) /. r) :: acc) rest refs
    | _ :: _ :: rest, _ :: refs -> go acc rest refs
    | _ -> acc
  in
  match w.closed with Some _ -> go [] (List.tl w.marks) w.refs | None -> go [] w.marks w.refs

(* Host CPU seconds per event at the reference speed: the median over
   all slices of the windows. *)
let cost_per_event windows =
  Metric.median (List.concat_map ratios windows) *. reference_nominal

(* CPU seconds of nine reference runs, to time right after a set-up. *)
let reference_runs () =
  let scratch = Array.make scratch_words 0 in
  List.init 9 (fun _ ->
      let t0 = cpu () in
      reference scratch;
      cpu () -. t0)

(* Set-up is not sliced. Each set-up is timed with the reference runs
   that followed it; the quickest set-up is scaled to the reference
   speed by the median of all those runs. *)
let setup_time (setups : (float * float list) list) =
  List.fold_left (fun m (s, _) -> Float.min m s) infinity setups
  *. reference_nominal
  /. Metric.median (List.concat_map snd setups)

(* The median reference run of the windows, in CPU seconds. *)
let reference_time windows = Metric.median (List.concat_map (fun w -> w.refs) windows)
