type t = {
  size : int;
  parent : int option array;
  children : int list array;
  depth : int array;
  roots : int list;
}

let build set =
  let m = Comm_set.size set in
  let parent = Array.make m None in
  let children = Array.make m [] in
  let depth = Array.make m 0 in
  let roots = ref [] in
  let stack = ref [] in
  Comm_set.iter_endpoints set (fun _pe role ->
      match role with
      | Comm_set.Source i -> (
          (match !stack with
          | [] ->
              roots := i :: !roots;
              depth.(i) <- 1
          | p :: _ ->
              parent.(i) <- Some p;
              children.(p) <- i :: children.(p);
              depth.(i) <- depth.(p) + 1);
          stack := i :: !stack)
      | Comm_set.Dest i -> (
          match !stack with
          | top :: rest when top = i -> stack := rest
          | _ ->
              invalid_arg
                "Nest_forest.build: set is not well-nested right-oriented")
      | Comm_set.Idle -> ());
  if !stack <> [] then
    invalid_arg "Nest_forest.build: set is not well-nested right-oriented";
  {
    size = m;
    parent;
    children = Array.map List.rev children;
    depth;
    roots = List.rev !roots;
  }

let size t = t.size
let parent t i = t.parent.(i)
let children t i = t.children.(i)
let roots t = t.roots
let depth t i = t.depth.(i)
let depths t = Array.copy t.depth
let max_depth t = Array.fold_left max 0 t.depth

let iter_dfs t f =
  let rec go i =
    f i;
    List.iter go t.children.(i)
  in
  List.iter go t.roots
