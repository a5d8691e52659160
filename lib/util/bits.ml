let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ceil_pow2 n =
  if n < 1 then invalid_arg "Bits.ceil_pow2";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Binary search on the bit length: six shifts for any OCaml int, so
   topology depth lookups stay O(1) on the binary shape. *)
let ilog2 n =
  if n < 1 then invalid_arg "Bits.ilog2";
  let k = if n lsr 32 <> 0 then 32 else 0 in
  let n = n lsr k and r = k in
  let k = if n lsr 16 <> 0 then 16 else 0 in
  let n = n lsr k and r = r + k in
  let k = if n lsr 8 <> 0 then 8 else 0 in
  let n = n lsr k and r = r + k in
  let k = if n lsr 4 <> 0 then 4 else 0 in
  let n = n lsr k and r = r + k in
  let k = if n lsr 2 <> 0 then 2 else 0 in
  let n = n lsr k and r = r + k in
  if n lsr 1 <> 0 then r + 1 else r

let popcount n =
  if n < 0 then invalid_arg "Bits.popcount";
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0
