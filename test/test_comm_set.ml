open Helpers

let test_create_valid () =
  let s = set ~n:8 [ (0, 3); (4, 5) ] in
  check_int "n" 8 (Cst_comm.Comm_set.n s);
  check_int "size" 2 (Cst_comm.Comm_set.size s)

let test_create_sorted () =
  let s = set ~n:8 [ (4, 5); (0, 3) ] in
  let cs = Cst_comm.Comm_set.comms s in
  check_int "first src" 0 cs.(0).src;
  check_int "second src" 4 cs.(1).src

let test_out_of_range () =
  match Cst_comm.Comm_set.create ~n:4 [ comm (0, 7) ] with
  | Error (Cst_comm.Comm_set.Out_of_range _) -> ()
  | _ -> Alcotest.fail "expected Out_of_range"

let test_shared_endpoint () =
  match Cst_comm.Comm_set.create ~n:8 [ comm (0, 3); comm (3, 5) ] with
  | Error (Cst_comm.Comm_set.Shared_endpoint 3) -> ()
  | _ -> Alcotest.fail "expected Shared_endpoint 3"

let test_shared_source () =
  match Cst_comm.Comm_set.create ~n:8 [ comm (0, 3); comm (0, 5) ] with
  | Error (Cst_comm.Comm_set.Shared_endpoint 0) -> ()
  | _ -> Alcotest.fail "expected Shared_endpoint 0"

let test_roles () =
  let s = set ~n:6 [ (1, 4) ] in
  (match Cst_comm.Comm_set.role_of s 1 with
  | Cst_comm.Comm_set.Source 0 -> ()
  | _ -> Alcotest.fail "PE 1 should be source of comm 0");
  (match Cst_comm.Comm_set.role_of s 4 with
  | Cst_comm.Comm_set.Dest 0 -> ()
  | _ -> Alcotest.fail "PE 4 should be dest of comm 0");
  match Cst_comm.Comm_set.role_of s 0 with
  | Cst_comm.Comm_set.Idle -> ()
  | _ -> Alcotest.fail "PE 0 should be idle"

let test_matching () =
  let s = set ~n:8 [ (4, 5); (0, 3) ] in
  check_true "sorted matching"
    (Cst_comm.Comm_set.matching s = [ (0, 3); (4, 5) ])

let test_mem () =
  let s = set ~n:8 [ (0, 3) ] in
  check_true "member" (Cst_comm.Comm_set.mem s (comm (0, 3)));
  check_true "not member" (not (Cst_comm.Comm_set.mem s (comm (0, 4))))

let test_orientation_tests () =
  check_true "right" (Cst_comm.Comm_set.is_right_oriented (set ~n:8 [ (0, 1); (2, 7) ]));
  check_true "left" (Cst_comm.Comm_set.is_left_oriented (set ~n:8 [ (1, 0); (7, 2) ]));
  let mixed = set ~n:8 [ (0, 1); (7, 2) ] in
  check_true "mixed is neither"
    ((not (Cst_comm.Comm_set.is_right_oriented mixed))
    && not (Cst_comm.Comm_set.is_left_oriented mixed))

let test_empty_set () =
  let s = Cst_comm.Comm_set.empty ~n:4 in
  check_int "size" 0 (Cst_comm.Comm_set.size s);
  check_true "empty is both orientations"
    (Cst_comm.Comm_set.is_right_oriented s
    && Cst_comm.Comm_set.is_left_oriented s)

let test_union () =
  let a = set ~n:8 [ (0, 1) ] and b = set ~n:8 [ (2, 3) ] in
  (match Cst_comm.Comm_set.union a b with
  | Ok u -> check_int "union size" 2 (Cst_comm.Comm_set.size u)
  | Error _ -> Alcotest.fail "union should succeed");
  let clash = set ~n:8 [ (1, 4) ] in
  match Cst_comm.Comm_set.union a clash with
  | Error (Cst_comm.Comm_set.Shared_endpoint 1) -> ()
  | _ -> Alcotest.fail "expected clash on PE 1"

let test_filter () =
  let s = set ~n:8 [ (0, 1); (2, 7) ] in
  let f = Cst_comm.Comm_set.filter s (fun c -> Cst_comm.Comm.span c > 1) in
  check_int "filtered size" 1 (Cst_comm.Comm_set.size f);
  check_int "kept n" 8 (Cst_comm.Comm_set.n f)

let test_string_round_trip () =
  let s = set ~n:16 [ (0, 15); (3, 4); (7, 10) ] in
  match Cst_comm.Comm_set.of_string (Cst_comm.Comm_set.to_string s) with
  | Ok s' -> check_true "round trip" (Cst_comm.Comm_set.equal s s')
  | Error e -> Alcotest.fail e

let test_of_string_comments () =
  match Cst_comm.Comm_set.of_string "# comment\nn 8\n\n0 3 # inline\n4 5\n" with
  | Ok s -> check_int "parsed" 2 (Cst_comm.Comm_set.size s)
  | Error e -> Alcotest.fail e

let test_of_string_errors () =
  check_true "missing header"
    (Result.is_error (Cst_comm.Comm_set.of_string "0 3\n"));
  check_true "bad line"
    (Result.is_error (Cst_comm.Comm_set.of_string "n 8\nfoo bar\n"));
  check_true "self loop"
    (Result.is_error (Cst_comm.Comm_set.of_string "n 8\n3 3\n"));
  check_true "out of range"
    (Result.is_error (Cst_comm.Comm_set.of_string "n 4\n0 9\n"))

(* The validator of a set that kept one role slot per PE: members in
   source order, each claiming its source and then its destination,
   the first failing member deciding the error.  [create] must reach
   the same verdict by sorting endpoints. *)
let slot_validator ~n comms =
  let comms = Array.of_list comms in
  Array.sort Cst_comm.Comm.compare comms;
  let claimed = Array.make n false in
  let err = ref None in
  Array.iter
    (fun (c : Cst_comm.Comm.t) ->
      if !err = None then
        if c.src >= n || c.dst >= n then
          err := Some (Cst_comm.Comm_set.Out_of_range c)
        else begin
          if claimed.(c.src) then
            err := Some (Cst_comm.Comm_set.Shared_endpoint c.src)
          else claimed.(c.src) <- true;
          if claimed.(c.dst) then
            err := Some (Cst_comm.Comm_set.Shared_endpoint c.dst)
          else claimed.(c.dst) <- true
        end)
    comms;
  match !err with Some e -> Error e | None -> Ok comms

(* Few PEs and endpoints up to n + 2 make shared and out-of-range
   endpoints common. *)
let gen_candidate =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    list_size (int_bound 8)
      (pair (int_bound (n + 2)) (int_bound (n + 2))
      |> map (fun (a, b) -> if a = b then (a, b + 1) else (a, b)))
    >|= fun pairs -> (n, pairs))

let prop_create_matches_slot_validator =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"create gives the per-PE validator's Ok or first Error"
       (QCheck.make
          ~print:(fun (n, ps) ->
            Printf.sprintf "n=%d [%s]" n
              (String.concat "; "
                 (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) ps)))
          gen_candidate)
       (fun (n, pairs) ->
         let comms = List.map comm pairs in
         match (Cst_comm.Comm_set.create ~n comms, slot_validator ~n comms) with
         | Ok s, Ok expected ->
             Cst_comm.Comm_set.n s = n
             && Cst_comm.Comm_set.comms s = expected
         | Error e, Error e' -> e = e'
         | _ -> false))

(* The endpoint walk visits every endpoint once, in PE order, with the
   role [role_of] reports — on crossing and mixed-orientation sets too. *)
let prop_iter_endpoints =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"iter_endpoints walks the endpoints in PE order"
       QCheck.(triple (int_bound 1_000_000) (int_range 1 9) (int_bound 100))
       (fun (seed, n_exp, pct) ->
         let n = 1 lsl n_exp in
         let rng = Cst_util.Prng.create seed in
         let s =
           Cst_workloads.Gen_arbitrary.random_pairs rng ~n
             ~pairs:(n / 2 * pct / 100)
         in
         let seen = ref [] in
         Cst_comm.Comm_set.iter_endpoints s (fun pe role ->
             seen := (pe, role) :: !seen);
         let seen = List.rev !seen in
         let pes = List.map fst seen in
         List.length seen = 2 * Cst_comm.Comm_set.size s
         && List.sort_uniq compare pes = pes
         && List.for_all
              (fun (pe, role) -> Cst_comm.Comm_set.role_of s pe = role)
              seen))

let suite =
  [
    case "create valid" test_create_valid;
    case "create sorts" test_create_sorted;
    case "out of range" test_out_of_range;
    case "shared endpoint" test_shared_endpoint;
    case "shared source" test_shared_source;
    case "roles" test_roles;
    case "matching" test_matching;
    case "mem" test_mem;
    case "orientation" test_orientation_tests;
    case "empty set" test_empty_set;
    case "union" test_union;
    case "filter" test_filter;
    case "string round trip" test_string_round_trip;
    case "of_string comments" test_of_string_comments;
    case "of_string errors" test_of_string_errors;
    prop_create_matches_slot_validator;
    prop_iter_endpoints;
  ]
