type role = Source of int | Dest of int | Idle

(* A set is [n] and its members sorted by source — nothing per PE, so
   whatever [n] is a set costs O(size log size) to build and O(size) to
   slice or translate.  PE roles are recovered by walking the endpoints
   in PE order ([iter_endpoints]). *)
type t = { n : int; comms : Comm.t array }

type error =
  | Out_of_range of Comm.t
  | Shared_endpoint of int

let pp_error fmt = function
  | Out_of_range c ->
      Format.fprintf fmt "communication %a out of range" Comm.pp c
  | Shared_endpoint p ->
      Format.fprintf fmt "PE %d is an endpoint of two communications" p

(* Endpoint slot [k] is the source (k even) or destination (k odd) of
   member [k / 2].  [iter_slots comms lim f] calls [f endpoint k] on the
   slots of the first [lim] members in (endpoint, slot) order, i.e. in
   the order of the distinct keys [endpoint * 2 lim + k].  The source
   keys already ascend (members are sorted by source), so only the
   destination keys are sorted before the two runs are merged.  The
   endpoints must be non-negative. *)
let iter_slots (comms : Comm.t array) lim f =
  let w = 2 * lim in
  let src_key i = (comms.(i).src * w) + (2 * i) in
  let dst = Array.init lim (fun i -> (comms.(i).dst * w) + (2 * i) + 1) in
  Array.stable_sort Int.compare dst;
  let i = ref 0 and j = ref 0 in
  for _ = 1 to w do
    let key =
      if !j = lim || (!i < lim && src_key !i < dst.(!j)) then begin
        incr i;
        src_key (!i - 1)
      end
      else begin
        incr j;
        dst.(!j - 1)
      end
    in
    f (key / w) (key mod w)
  done

(* Members are checked in source order, each claiming its source and
   then its destination, and the first member that fails decides the
   error: [Out_of_range] if an endpoint lies outside [\[0, n)], else
   [Shared_endpoint] of its destination if that was already claimed,
   else of its source.  A slot is claimed earlier exactly when an equal
   endpoint precedes it in (endpoint, slot) order.  Members from the
   first out-of-range one on cannot fail first, so only the ones before
   it are walked. *)
let first_error ~n comms =
  let m = Array.length comms in
  let out_of_range (c : Comm.t) =
    c.src < 0 || c.dst < 0 || c.src >= n || c.dst >= n
  in
  let oor =
    let i = ref 0 in
    while !i < m && not (out_of_range comms.(!i)) do
      incr i
    done;
    !i
  in
  let clash = ref m and clash_dst = ref false and prev = ref (-1) in
  iter_slots comms oor (fun e k ->
      if e = !prev then begin
        let i = k lsr 1 in
        if i < !clash then begin
          clash := i;
          clash_dst := k land 1 = 1
        end
        else if i = !clash && k land 1 = 1 then clash_dst := true
      end;
      prev := e);
  if !clash < m then
    let (c : Comm.t) = comms.(!clash) in
    Some (Shared_endpoint (if !clash_dst then c.dst else c.src))
  else if oor < m then Some (Out_of_range comms.(oor))
  else None

let build ~n comms =
  let comms = Array.of_list comms in
  Array.sort Comm.compare comms;
  match first_error ~n comms with
  | Some e -> Error e
  | None -> Ok { n; comms }

let create ~n comms =
  if n < 1 then invalid_arg "Comm_set.create: n must be positive";
  build ~n comms

let create_exn ~n comms =
  match create ~n comms with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Comm_set: %a" pp_error e)

let unsafe_of_sorted ~n comms = { n; comms }
let empty ~n = create_exn ~n []

let n t = t.n
let size t = Array.length t.comms
let comms t = t.comms
let mem t c = Array.exists (Comm.equal c) t.comms

let iter_endpoints t f =
  iter_slots t.comms (Array.length t.comms) (fun e k ->
      f e (if k land 1 = 0 then Source (k lsr 1) else Dest (k lsr 1)))

let role_of t p =
  let r = ref Idle in
  Array.iteri
    (fun i (c : Comm.t) ->
      if c.src = p then r := Source i else if c.dst = p then r := Dest i)
    t.comms;
  !r

let is_right_oriented t = Array.for_all Comm.is_right_oriented t.comms
let is_left_oriented t = Array.for_all Comm.is_left_oriented t.comms

let matching t =
  Array.to_list t.comms |> List.map (fun (c : Comm.t) -> (c.src, c.dst))

let union a b =
  if a.n <> b.n then invalid_arg "Comm_set.union: different n";
  build ~n:a.n (Array.to_list a.comms @ Array.to_list b.comms)

let filter t f = create_exn ~n:t.n (List.filter f (Array.to_list t.comms))

let pp fmt t =
  Format.fprintf fmt "{n=%d; " t.n;
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt ", ";
      Comm.pp fmt c)
    t.comms;
  Format.fprintf fmt "}"

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "n %d\n" t.n);
  Array.iter
    (fun (c : Comm.t) -> Buffer.add_string b (Printf.sprintf "%d %d\n" c.src c.dst))
    t.comms;
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s in
  let clean l =
    match String.index_opt l '#' with
    | Some i -> String.trim (String.sub l 0 i)
    | None -> String.trim l
  in
  let rec go lines n acc =
    match lines with
    | [] -> (
        match n with
        | None -> Error "missing 'n <count>' header"
        | Some n -> (
            match create ~n (List.rev acc) with
            | Ok t -> Ok t
            | Error e -> Error (Format.asprintf "%a" pp_error e)))
    | l :: rest -> (
        let l = clean l in
        if l = "" then go rest n acc
        else
          match String.split_on_char ' ' l |> List.filter (( <> ) "") with
          | [ "n"; v ] -> (
              match int_of_string_opt v with
              | Some v when v > 0 -> go rest (Some v) acc
              | _ -> Error (Printf.sprintf "bad PE count: %s" l))
          | [ a; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some s, Some d when s >= 0 && d >= 0 && s <> d ->
                  go rest n (Comm.make ~src:s ~dst:d :: acc)
              | _ -> Error (Printf.sprintf "bad communication line: %s" l))
          | _ -> Error (Printf.sprintf "unparseable line: %s" l))
  in
  go lines None []

let equal a b =
  a.n = b.n
  && Array.length a.comms = Array.length b.comms
  && Array.for_all2 Comm.equal a.comms b.comms
