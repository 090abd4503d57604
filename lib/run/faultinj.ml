type site = Term_eval | Sampling | Certificate | Serve_worker

exception Injected of site

let site_name = function
  | Term_eval -> "term-eval"
  | Sampling -> "sampling"
  | Certificate -> "certificate"
  | Serve_worker -> "serve-worker"

type state = { sites : site list; rng : Random.State.t; rate : float; mutable count : int }

let state : state option ref = ref None

let arm ?(seed = 0) ?(rate = 1.0) sites =
  state := Some { sites; rng = Random.State.make [| seed; 0x4661756c |]; rate; count = 0 }

let disarm () = state := None
let armed site = match !state with Some s -> List.mem site s.sites | None -> false
let fired () = match !state with Some s -> s.count | None -> 0

let fire site =
  match !state with
  | Some s when List.mem site s.sites && Random.State.float s.rng 1.0 < s.rate ->
    s.count <- s.count + 1;
    raise (Injected site)
  | _ -> ()

let protect ?what f =
  try Ok (f ()) with
  | Injected site -> Error (Error.Injected_fault { site = site_name site })
  | e -> Error (Error.of_exn ?what e)
