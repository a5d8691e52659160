(* The ledger is a pure derivation of the execution log: [of_log] is
   the only place in the codebase where power units are charged. *)

type t = {
  connects : int array;
  disconnects : int array;
  writes : int array;
}

let of_log ?from ?upto ~num_nodes log =
  let t =
    {
      connects = Array.make (num_nodes + 1) 0;
      disconnects = Array.make (num_nodes + 1) 0;
      writes = Array.make (num_nodes + 1) 0;
    }
  in
  Exec_log.iter ?from ?upto log (fun e ->
      match e with
      | Exec_log.Connect { node; _ } ->
          t.connects.(node) <- t.connects.(node) + 1
      | Exec_log.Disconnect { node; _ } ->
          t.disconnects.(node) <- t.disconnects.(node) + 1
      | Exec_log.Write_config { node; count } ->
          t.writes.(node) <- t.writes.(node) + count
      | Exec_log.Phase_done _ | Exec_log.Round_begin _ | Exec_log.Deliver _
      | Exec_log.Run_end _ ->
          ());
  t

let num_nodes t = Array.length t.connects - 1
let connects t ~node = t.connects.(node)
let disconnects t ~node = t.disconnects.(node)
let writes t ~node = t.writes.(node)

(* The scans are int-typed on purpose: a bare [Stdlib.max] folded over
   an array is a polymorphic compare call per element. *)
let sum (a : int array) =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + a.(i)
  done;
  !s

let total_connects t = sum t.connects
let total_disconnects t = sum t.disconnects
let total_writes t = sum t.writes

let max_of (a : int array) =
  let m = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) > !m then m := a.(i)
  done;
  !m

let max_connects_per_switch t = max_of t.connects
let max_writes_per_switch t = max_of t.writes

let max_events_per_switch t =
  let m = ref 0 in
  for i = 0 to Array.length t.connects - 1 do
    let e = t.connects.(i) + t.disconnects.(i) in
    if e > !m then m := e
  done;
  !m

let per_switch_connects t = Array.copy t.connects
let per_switch_writes t = Array.copy t.writes
let per_switch_disconnects t = Array.copy t.disconnects

let pp fmt t =
  Format.fprintf fmt
    "power: %d connects (%d disconnects, %d writes), max per switch %d \
     connects / %d writes"
    (total_connects t) (total_disconnects t) (total_writes t)
    (max_connects_per_switch t) (max_writes_per_switch t)
