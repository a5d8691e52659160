type token = Open | Close | Blank

let tokens set =
  if not (Comm_set.is_right_oriented set) then
    invalid_arg "Paren.tokens: set is not right-oriented";
  let toks = Array.make (Comm_set.n set) Blank in
  Array.iter
    (fun (c : Comm.t) ->
      toks.(c.src) <- Open;
      toks.(c.dst) <- Close)
    (Comm_set.comms set);
  toks

let to_string set =
  tokens set
  |> Array.map (function Open -> "(" | Close -> ")" | Blank -> ".")
  |> Array.to_list |> String.concat ""

let token_of_char = function
  | '(' -> Ok Open
  | ')' -> Ok Close
  | '.' | '_' | ' ' -> Ok Blank
  | c -> Error (Printf.sprintf "Paren.of_string: bad character %C" c)

let match_pairs toks =
  let pairs = ref [] in
  let stack = ref [] in
  let err = ref None in
  Array.iteri
    (fun i tok ->
      if !err = None then
        match tok with
        | Open -> stack := i :: !stack
        | Close -> (
            match !stack with
            | [] -> err := Some (Printf.sprintf "unmatched ')' at PE %d" i)
            | s :: rest ->
                pairs := (s, i) :: !pairs;
                stack := rest)
        | Blank -> ())
    toks;
  match (!err, !stack) with
  | Some e, _ -> Error e
  | None, s :: _ -> Error (Printf.sprintf "unmatched '(' at PE %d" s)
  | None, [] -> Ok (List.sort compare !pairs)

let is_balanced toks = Result.is_ok (match_pairs toks)

let of_string s =
  let toks = ref [] in
  let err = ref None in
  String.iter
    (fun c ->
      if !err = None then
        match token_of_char c with
        | Ok t -> toks := t :: !toks
        | Error e -> err := Some e)
    s;
  match !err with
  | Some e -> Error e
  | None -> (
      let toks = Array.of_list (List.rev !toks) in
      if Array.length toks = 0 then Error "Paren.of_string: empty string"
      else
        match match_pairs toks with
        | Error e -> Error e
        | Ok pairs -> (
            let comms =
              List.map (fun (s, d) -> Comm.make ~src:s ~dst:d) pairs
            in
            match Comm_set.create ~n:(Array.length toks) comms with
            | Ok set -> Ok set
            | Error e -> Error (Format.asprintf "%a" Comm_set.pp_error e)))

let max_depth toks =
  let depth = ref 0 and best = ref 0 in
  Array.iter
    (fun tok ->
      match tok with
      | Open ->
          incr depth;
          if !depth > !best then best := !depth
      | Close -> decr depth
      | Blank -> ())
    toks;
  !best
