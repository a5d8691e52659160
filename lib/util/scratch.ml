type 'a cell = { mutable busy : bool; value : 'a }
type 'a t = { fresh : unit -> 'a; key : 'a cell Domain.DLS.key }

let create fresh =
  let key = Domain.DLS.new_key (fun () -> { busy = false; value = fresh () }) in
  { fresh; key }

let use t f =
  let cell = Domain.DLS.get t.key in
  if cell.busy then f (t.fresh ())
  else begin
    cell.busy <- true;
    match f cell.value with
    | r ->
        cell.busy <- false;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Domain.DLS.set t.key { busy = false; value = t.fresh () };
        Printexc.raise_with_backtrace e bt
  end
