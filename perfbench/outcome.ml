(* Per-operation outcome accounting for the benchmark's own load loop.
   A call that raises [Client.Unavailable] (retry budget exhausted) is a
   refused operation: it counts against [error_rate]. A call that returns
   a wrong result is recorded separately and fails the run. *)

type t = {
  mutable attempted : int;
  mutable refused : int;
  mutable wrong : int;
  mutable first_wrong : string option;
}

let create () = { attempted = 0; refused = 0; wrong = 0; first_wrong = None }

let attempt t f =
  t.attempted <- t.attempted + 1;
  match f () with
  | x -> Some x
  | exception Leed_core.Client.Unavailable _ ->
      t.refused <- t.refused + 1;
      None

let wrong t msg =
  t.wrong <- t.wrong + 1;
  if t.first_wrong = None then t.first_wrong <- Some msg

let failed t = t.refused + t.wrong
let error_rate t = Metric.ratio (failed t) t.attempted

let merge ts =
  let m = create () in
  List.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.refused <- m.refused + t.refused;
      m.wrong <- m.wrong + t.wrong;
      if m.first_wrong = None then m.first_wrong <- t.first_wrong)
    ts;
  m
