open Helpers
module Scratch = Cst_util.Scratch

(* A scratch is handed back clean and reused; a nested borrower and the
   borrower after a raise get fresh ones. *)

let test_reused () =
  let made = ref 0 in
  let t = Scratch.create (fun () -> incr made; ref 0) in
  let a = Scratch.use t Fun.id and b = Scratch.use t Fun.id in
  check_true "same scratch on one domain" (a == b);
  check_int "made once" 1 !made

let test_nested_gets_fresh () =
  let t = Scratch.create (fun () -> ref 0) in
  Scratch.use t (fun outer ->
      outer := 1;
      Scratch.use t (fun inner ->
          check_true "nested use is not handed the borrowed scratch"
            (inner != outer);
          check_int "fresh" 0 !inner);
      outer := 0);
  Scratch.use t (fun s -> check_int "outer scratch back in use" 0 !s)

let test_raise_drops () =
  let t = Scratch.create (fun () -> ref 0) in
  let before = Scratch.use t Fun.id in
  check_raises_invalid "raise passes through" (fun () ->
      Scratch.use t (fun s ->
          s := 7;
          invalid_arg "dirty"));
  Scratch.use t (fun s ->
      check_true "dirty scratch dropped" (s != before);
      check_int "replacement is fresh" 0 !s)

let test_per_domain () =
  let t = Scratch.create (fun () -> ref 0) in
  let here = Scratch.use t Fun.id in
  let there = Domain.join (Domain.spawn (fun () -> Scratch.use t Fun.id)) in
  check_true "each domain has its own" (here != there)

let suite =
  [
    case "reused" test_reused;
    case "nested use gets a fresh scratch" test_nested_gets_fresh;
    case "a raise drops the scratch" test_raise_drops;
    case "one scratch per domain" test_per_domain;
  ]
