(* Perf-regression gate over BENCH_engine.json files.

     check_regression.exe --validate FILE [--out VERDICT.json]
     check_regression.exe BASELINE FRESH [--threshold PCT] [--out VERDICT.json]

   --validate holds one file to the paper's claims and to per-row sanity;
   a comparison fails a fresh [Time] more than PCT percent (default 25)
   above the baseline's, a [Rate] more than PCT percent below it, a lost
   [Cert] and a baseline row missing from the fresh run.  Violations
   print "FAIL <gate>: <detail>" lines and exit 1; --out also writes a
   verdict JSON with the status of every gate.  Input that is not a sound
   v3 bench file prints "check_regression: <file>: <reason>", exit 2.

   Adding a gate = adding a row to [table]; a new bench section is one
   more entry in [sections]. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Carries the whole report line after "check_regression: ". *)
exception Bad_input of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail what =
    let line = ref 1 and upto = min !i (n - 1) in
    String.iteri (fun j c -> if j < upto && c = '\n' then incr line) s;
    if !i >= n then bad "invalid JSON: unexpected end of input at line %d" !line
    else bad "invalid JSON at line %d: %s" !line what
  in
  let peek () = if !i < n then s.[!i] else '\000' in
  let next () =
    if !i >= n then fail "";
    incr i;
    s.[!i - 1]
  in
  let eat c = peek () = c && (incr i; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if List.exists eat [ ' '; '\t'; '\n'; '\r' ] then ws () in
  let literal word v =
    if String.for_all eat word then v else fail "expected a value"
  in
  let rec digits k =
    if peek () >= '0' && peek () <= '9' then (
      incr i;
      digits (k + 1))
    else if k = 0 then fail "expected a digit"
  in
  let number () =
    let start = !i in
    ignore (eat '-');
    if not (eat '0') then digits 0;
    if eat '.' then digits 0;
    if eat 'e' || eat 'E' then (
      ignore (eat '+' || eat '-');
      digits 0);
    Num (float_of_string (String.sub s start (!i - start)))
  in
  let hex4 () =
    let h = String.init 4 (fun _ -> next ()) in
    let hex c = String.contains "0123456789abcdefABCDEF" c in
    if not (String.for_all hex h) then fail "bad \\u escape";
    int_of_string ("0x" ^ h)
  in
  (* A high surrogate takes the low half that must follow it. *)
  let unicode () =
    let u = hex4 () in
    let lo =
      if u land 0xFC00 = 0xD800 && eat '\\' && eat 'u' then hex4 () - 0xDC00
      else -1
    in
    let u = if lo lsr 10 = 0 then 0x10000 + ((u - 0xD800) lsl 10) + lo else u in
    if Uchar.is_valid u then Uchar.of_int u else fail "bad \\u escape"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let escape c =
      match String.index_opt "\"\\/bfnrt" c with
      | Some k -> "\"\\/\b\012\n\r\t".[k]
      | None -> fail "bad escape"
    in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | c ->
          (match c with
          | '\\' when eat 'u' -> Buffer.add_utf_8_uchar b (unicode ())
          | '\\' -> Buffer.add_char b (escape (next ()))
          | c when c < ' ' -> fail "control character in string"
          | c -> Buffer.add_char b c);
          go ()
    in
    go ()
  in
  let members close item =
    ws ();
    let rec go acc =
      let acc = item () :: acc in
      ws ();
      if eat ',' then go acc
      else (
        expect close;
        List.rev acc)
    in
    if eat close then [] else go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' when eat '{' -> Obj (members '}' member)
    | '[' when eat '[' -> Arr (members ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  and member () =
    ws ();
    let k = string () in
    ws ();
    expect ':';
    (k, value ())
  in
  let v = value () in
  ws ();
  if !i < n then fail "trailing characters after the document";
  v

(* [where] prefixes field errors: "<file>: <section> row <key>". *)
type row = { key : string; where : string; fields : (string * json) list }

let typed what get r name =
  match Option.map get (List.assoc_opt name r.fields) with
  | Some (Some x) -> x
  | Some None -> bad "%s: field %S is not %s" r.where name what
  | None -> bad "%s: missing field %S" r.where name

let num = typed "a number" (function Num x -> Some x | _ -> None)
let str = typed "a string" (function Str x -> Some x | _ -> None)
let flag = typed "a boolean" (function Bool x -> Some x | _ -> None)
let int r name = int_of_float (num r name)

(* Expand a key template: "plan_store/{pes}" -> "plan_store/1024".
   Strings go in verbatim, numbers as integers. *)
let expand template r =
  let value = function
    | Str s -> Some s
    | Num x -> Some (string_of_int (int_of_float x))
    | _ -> None
  in
  let part p =
    match String.index_opt p '}' with
    | None -> p
    | Some k ->
        typed "a string or number" value r (String.sub p 0 k)
        ^ String.sub p (k + 1) (String.length p - k - 1)
  in
  String.concat "" (List.map part (String.split_on_char '{' template))

type status = Pass | Fail of string list | Skipped

type test =
  | Time  (** compare: the metric field is a time; higher is worse *)
  | Rate  (** compare: the metric field is a rate; lower is worse *)
  | Cert of string * string
      (** the boolean metric field holds: detail when validating, when lost *)
  | Holds of (row -> status)  (** validate: a claim on one row *)
  | Across of (row list -> (string * status) list)
      (** validate: a claim relating rows; it names its own gates *)

(* [multi] gates skip multi-domain rows (a cross-row gate: outright)
   when a host had one core: extra domains then measure contention. *)
type gate = {
  section : string;
  metric : string;  (** the last component of the gate's name *)
  test : test;
  full_only : bool;  (** skipped on --fast files *)
  multi : bool;
  after : string option;  (** validate: run only if this gate passed *)
}

let gate ?(full_only = false) ?(multi = false) ?after section metric test =
  { section; metric; test; full_only; multi; after }

let holds ?full_only ?after s m h = gate ?full_only ?after s m (Holds h)
let cert ?after s m claim lost = gate ?after s m (Cert (claim, lost))

let check ok fmt =
  Printf.ksprintf (fun d -> if ok then Pass else Fail [ d ]) fmt

let pos x = Float.is_finite x && x > 0.0

let positive name fmt r =
  let x = num r name in
  check (pos x) fmt x

(* Two integer fields in the order [op]: "<claim>: <a> vs <b>". *)
let ints op a b claim r =
  let x = int r a and y = int r b in
  check (op x y) "%s: %d vs %d" claim x y

(* A trace's headline gate: skipped on the other traces. *)
let on_trace trace h r = if str r "trace" = trace then h r else Skipped

(* Epoch counts obey the admission policy: at least one, at most one per
   job, and exactly one per job under immediate. *)
let epochs r =
  let e = int r "epochs" and jobs = int r "jobs" in
  match
    ( check (e >= 1 && e <= jobs) "epochs %d outside [1, %d jobs]" e jobs,
      check (str r "policy" <> "immediate" || e = jobs)
        "immediate must pay one reconfiguration per job: %d epochs, %d jobs"
        e jobs )
  with
  | Fail a, Fail b -> Fail (a @ b)
  | (Fail _ as f), _ | _, (Fail _ as f) -> f
  | _ -> Pass

(* On the bursty trace at domains:1 the delta-aware policy beats immediate
   on total power: same per-job power, fewer reconfigurations. *)
let delta_beats_immediate rows =
  let pair pes =
    let find policy =
      let key = Printf.sprintf "streaming/bursty/%s/%d/1d" policy pes in
      List.find_opt (fun r -> r.key = key) rows
    in
    match (find "delta", find "immediate") with
    | Some d, Some i ->
        let pd = num d "total_power" and pi = num i "total_power" in
        ( Printf.sprintf "streaming/bursty/%d/delta_total_power" pes,
          check (pd < pi)
            "delta policy must beat immediate on total power on the bursty \
             trace: %.1f vs %.1f (epochs %d vs %d)"
            pd pi (int d "epochs") (int i "epochs") )
    | _ ->
        ( Printf.sprintf "streaming/bursty/%d" pes,
          Fail [ "missing the bursty delta/immediate row pair at domains:1" ] )
  in
  List.map pair (List.sort_uniq compare (List.map (fun r -> int r "pes") rows))

(* Running wider must not collapse throughput: at each size the best
   multi-domain rate holds 90% of the domains:1 rate. *)
let scaling rows =
  let floor = 0.9 in
  let gate r =
    let pes = int r "pes" and d1 = num r "jobs_per_sec" in
    let wider s = int s "pes" = pes && int s "domains" > 1 in
    let rate s = num s "jobs_per_sec" in
    let rates = List.map rate (List.filter wider rows) in
    let best = List.fold_left Float.max neg_infinity rates in
    ( Printf.sprintf "service_throughput/%d/scaling" pes,
      if rates = [] then Skipped
      else
        check (best >= floor *. d1)
          "best multi-domain throughput %.1f jobs/s is below %g%% of the \
           domains:1 rate %.1f"
          best (100.0 *. floor) d1 )
  in
  List.map gate (List.filter (fun r -> int r "domains" = 1) rows)

(* A fat tree with uplink capacity c cuts the binary round count to exactly
   ceil(bin/c): Theorem 5 divided by the oversubscription ratio. *)
let cap_rounds rows =
  let is_bin r = String.starts_with ~prefix:"bin:" (str r "shape") in
  let bin = List.find_opt is_bin rows in
  let gate r =
    let cap = int r "cap" and rounds = int r "rounds" in
    ( r.key ^ "/cap_rounds",
      match bin with
      | Some b when cap > 1 ->
          let bin = int b "rounds" in
          let expect = (bin + cap - 1) / cap in
          check (rounds = expect)
            "capacity-%d uplinks must cut the binary round count to \
             ceil(%d/%d) = %d, measured %d"
            cap bin cap expect rounds
      | _ -> Skipped )
  in
  let no_bin = "topology section has no binary-tree reference row" in
  if rows = [] then []
  else ("topology/bin", check (bin <> None) "%s" no_bin) :: List.map gate rows

(* A JSON member (rows, or one object), the key template naming a row
   and prefixing its gates, and the detail when a file has no row. *)
let section ?none name template =
  let default = Printf.sprintf "is missing the %s section" name in
  (name, template, Option.value none ~default)

let sections =
  [
    section "results" "results/{kernel}/{pes}/{width}"
      ~none:"contains no benchmark rows";
    section "service_throughput" "service_throughput/service/{pes}/{domains}d"
      ~none:"contains no service_throughput rows";
    section "streaming" "streaming/{process}/{policy}/{pes}/{domains}d"
      ~none:"contains no streaming rows";
    section "streaming_virtual"
      "streaming_virtual/{process}/{policy}/{pes}/{domains}d";
    section "placement" "placement/{trace}/{pes}";
    section "log_overhead" "log_overhead";
    section "plan_cache" "plan_cache";
    section "par_engine" "par_engine";
    section "plan_store" "plan_store/{pes}";
    section "topology" "topology/{shape}";
  ]

(* One row per gate; a row's [~after] names an earlier row of its
   section.  Thresholds live in the rows that state them. *)
let table =
  [
    holds "results" "ns_per_op" (positive "ns_per_op" "bad timing %f");
    gate "results" "ns_per_op" Time;
    holds "service_throughput" "jobs_per_sec"
      (positive "jobs_per_sec" "bad throughput %f");
    (* a --fast rep is 16 jobs (~25 ms) and Service.run spawns and joins
       its domain pool inside it: the ratio would time Domain.spawn *)
    gate ~full_only:true ~multi:true "service_throughput" "scaling"
      (Across scaling);
    gate ~multi:true "service_throughput" "jobs_per_sec" Rate;
    holds "streaming" "sojourn" (fun r ->
        let p50 = num r "p50_ms" and p99 = num r "p99_ms" in
        check (pos p50 && Float.is_finite p99 && p99 >= p50)
          "bad percentiles (p50 %f ms, p99 %f ms)" p50 p99);
    holds "streaming" "jobs_per_sec"
      (positive "jobs_per_sec" "bad throughput %f");
    holds "streaming" "epochs" epochs;
    holds "streaming" "total_power"
      (positive "total_power" "bad total power %f");
    gate "streaming" "delta_total_power" (Across delta_beats_immediate);
    gate ~multi:true "streaming" "p99_ms" Time;
    gate ~multi:true "streaming" "jobs_per_sec" Rate;
    holds "streaming_virtual" "jobs_per_sec" (fun r ->
        let jps = num r "jobs_per_sec" and wall = num r "wall_s" in
        check (pos jps && pos wall) "bad replay (%.1f jobs/s over %.3f s)"
          jps wall);
    holds "streaming_virtual" "epochs" epochs;
    (* the 10^5-job headline trace; --fast shrinks it *)
    holds ~full_only:true "streaming_virtual" "jobs" (fun r ->
        let floor = 100_000 in
        check (int r "jobs" >= floor)
          "full-size virtual replay must drive >= %d jobs, got %d" floor
          (int r "jobs"));
    gate ~multi:true "streaming_virtual" "jobs_per_sec" Rate;
    holds "placement" "width" (fun r ->
        let wi = int r "width_identity" and ws = int r "width_static" in
        check (wi >= 1 && ws >= 1) "bad widths (identity %d, static %d)"
          wi ws);
    holds "placement" "no_regression"
      (ints ( <= ) "width_static" "width_identity"
         "static placement must never exceed identity width");
    holds "placement" "power"
      (ints ( <= ) "power_static" "power_identity"
         "static placement must never spend more power");
    cert "placement" "digest_ok"
      "placed job must be byte-identical to the permuted set run directly"
      "fresh run lost byte-identity between placed jobs and directly \
       permuted sets";
    holds "placement" "ratio"
      (on_trace "skewed" (fun r ->
           let floor = 1.5 in
           check (float (int r "width_identity")
             >= floor *. float (int r "width_static"))
             "skewed trace must place at >= %gx width reduction, \
              measured %.2fx"
             floor (num r "ratio")));
    holds "placement" "power_win"
      (on_trace "skewed"
         (ints ( < ) "power_static" "power_identity"
            "skewed trace must strictly cut power"));
    holds "placement" "auto_no_regression"
      (on_trace "uniform"
         (ints ( <= ) "width_auto" "width_identity"
            "self-adjusting placement must never exceed identity width"));
    holds "placement" "auto_beats_static"
      (on_trace "phase"
         (ints ( < ) "width_auto" "width_static"
            "self-adjusting placement must beat the static compromise \
             on the phase-changing trace"));
    holds "placement" "remaps"
      (on_trace "phase" (fun r ->
           check (int r "remaps" >= 1)
             "phase-changing trace must trigger at least one remap"));
    gate "placement" "ratio" Rate;
    holds "log_overhead" "ns_per_append" (fun r ->
        let ns = num r "ns_per_append" and b = num r "bytes_per_event" in
        check (pos ns && b > 0.0) "bad log_overhead (%f ns, %f B)" ns b);
    gate "log_overhead" "ns_per_append" Time;
    holds "plan_cache" "compile_ns" (fun r ->
        let c = num r "compile_ns" and rp = num r "replay_ns" in
        check (pos c && pos rp)
          "bad timings (compile %f ns, replay %f ns)" c rp);
    holds ~after:"compile_ns" "plan_cache" "speedup" (fun r ->
        let floor = 3.0 and s = num r "compile_ns" /. num r "replay_ns" in
        check (s >= floor)
          "replay must be >= %gx faster than compile, measured %.2fx at \
           %d PEs"
          floor s (int r "pes"));
    holds ~after:"compile_ns" "plan_cache" "hit_rate" (fun r ->
        let floor = 0.80 and h = num r "hit_rate" in
        check (h >= floor)
          "repetitive trace must hit >= %g%%, measured %.1f%%"
          (100.0 *. floor) (100.0 *. h));
    gate "plan_cache" "compile_ns" Time;
    gate "plan_cache" "replay_ns" Time;
    gate "plan_cache" "hit_rate" Rate;
    holds "par_engine" "seq_ns" (fun r ->
        let seq = num r "seq_ns" and d1 = num r "par_d1_ns" in
        check (pos seq && pos d1)
          "bad timings (seq %f ns, par d1 %f ns)" seq d1);
    cert "par_engine" "digest_match"
      "merged log must be digest-identical to the sequential engine's"
      "fresh run lost digest identity with the sequential engine";
    cert "par_engine" "work_conserved"
      "per-block event counts must sum to the sequential run's"
      "fresh run no longer conserves per-block work";
    (* on the --fast grid the blocks are a few dozen PEs and the
       constant per-block cost dominates *)
    holds ~full_only:true "par_engine" "overhead" (fun r ->
        let ceiling = 1.10 and o = num r "overhead" in
        let pct x = 100.0 *. (x -. 1.0) in
        check (o <= ceiling)
          "domains:1 must stay within %g%% of the sequential engine, \
           measured %.1f%% at %d PEs"
          (pct ceiling) (pct o) (int r "pes"));
    gate "par_engine" "seq_ns" Time;
    gate "par_engine" "par_d1_ns" Time;
    holds "plan_store" "timings" (fun r ->
        let rc = num r "recompile_ns" and w = num r "warm_ns" in
        let codec = num r "codec_ns_per_event" in
        check (pos rc && pos w && codec > 0.0)
          "bad timings (recompile %f ns, warm %f ns, codec %f ns/event)"
          rc w codec);
    cert ~after:"timings" "plan_store" "digest_ok"
      "decoded plan's replay must be digest-identical to a fresh run"
      "fresh run lost replay digest identity with a fresh run";
    (* a file-system timing, asked of full-size runs only *)
    holds ~full_only:true ~after:"timings" "plan_store" "warm_speedup" (fun r ->
        let floor = 3.0 and s = num r "recompile_ns" /. num r "warm_ns" in
        check (s >= floor)
          "warm-store cold start must be >= %gx faster than recompile, \
           measured %.2fx at %d PEs"
          floor s (int r "pes"));
    gate "plan_store" "recompile_ns" Time;
    gate "plan_store" "warm_ns" Time;
    gate "plan_store" "codec_ns_per_event" Time;
    holds "topology" "ns_per_op" (positive "ns_per_op" "bad timing %f");
    holds "topology" "width" (fun r ->
        check (int r "width" >= 1) "capacity-weighted width %d below 1"
          (int r "width"));
    holds "topology" "rounds" (fun r ->
        let rounds = int r "rounds" and w = int r "width" in
        check (rounds = w)
          "scheduler must meet the width bound on the bench trace: %d \
           rounds, width %d"
          rounds w);
    holds "topology" "power" (fun r ->
        let c = int r "connects" and w = int r "writes" in
        check (c + w > 0)
          "a non-empty schedule must spend power: %d connects, %d writes"
          c w);
    gate "topology" "cap_rounds" (Across cap_rounds);
    gate "topology" "ns_per_op" Time;
  ]

type file = { fast : bool; nproc : int; rows : (string * row list) list }

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e ->
      if String.starts_with ~prefix:(path ^ ":") e then bad "%s" e
      else bad "%s: %s" path e
  in
  let doc =
    match parse_json text with
    | Obj fields -> { key = ""; where = path; fields }
    | _ -> bad "%s: not a JSON object" path
    | exception Bad_input e -> bad "%s: %s" path e
  in
  if str doc "schema" <> "cst-padr/bench-engine/v3" then
    bad "%s: unknown schema %S" path (str doc "schema");
  let rows (name, template, _) =
    let row i = function
      | Obj fields ->
          let at = Printf.sprintf "%s: %s row %d" path name (i + 1) in
          let key = expand template { key = ""; where = at; fields } in
          let where = Printf.sprintf "%s: %s row %s" path name key in
          { key; where; fields }
      | _ -> bad "%s: %s row %d is not an object" path name (i + 1)
    in
    match List.assoc_opt name doc.fields with
    | None -> (name, [])
    | Some (Arr items) -> (name, List.mapi row items)
    | Some (Obj _ as o) -> (name, [ row 0 o ])
    | Some _ -> bad "%s: section %S is not an array or object" path name
  in
  let rows = List.map rows sections in
  { fast = flag doc "fast"; nproc = int doc "nproc"; rows }

(* Every gate evaluated, in order; the violations are its [Fail]s. *)
let results : (string * status) list ref = ref []
let record gate status = results := (gate, status) :: !results

(* Runs [table] over [file]: alone it validates the file; with [~fresh]
   it compares [fresh] against [file] as the baseline. *)
let evaluate ?fresh ~threshold path file =
  let compare = fresh <> None in
  let other = Option.value fresh ~default:file in
  let single_core = file.nproc = 1 || other.nproc = 1 in
  let applies g =
    match g.test with
    | Holds _ -> not compare
    | Time | Rate -> compare
    | Cert _ -> true
    | Across _ -> false
  in
  let skip g row =
    (g.full_only && other.fast)
    || g.multi && single_core
       && match row with Some r -> int r "domains" > 1 | None -> true
  in
  (* [b] is the row walked; [c], its counterpart, is the fresh run's row
     in compare mode and [b] itself when validating. *)
  let test g b c =
    match g.test with
    | Holds h -> h b
    | Cert (claim, lost) ->
        check (flag c g.metric) "%s" (if compare then lost else claim)
    | Across _ -> invalid_arg "Across gates take the whole section"
    | Time | Rate ->
        let before = num b g.metric and after = num c g.metric in
        let ratio = after /. before and t = threshold /. 100.0 in
        let bad =
          match g.test with Time -> ratio > 1.0 +. t | _ -> ratio < 1.0 -. t
        in
        Printf.printf "%-52s %12.2f %12.2f %7.2fx%s\n" (b.key ^ "/" ^ g.metric)
          before after ratio
          (if bad then "  REGRESSION" else "");
        check (not bad) "%.2f -> %.2f (%.2fx, threshold %.0f%%)" before after
          ratio threshold
  in
  let on_row gates others b =
    let live = List.filter (fun g -> not (skip g (Some b))) gates in
    let c =
      if compare then List.find_opt (fun c -> c.key = b.key) others else Some b
    in
    let passed m = List.assoc_opt (b.key ^ "/" ^ m) !results = Some Pass in
    let ready g = compare || Option.fold ~none:true ~some:passed g.after in
    let run g =
      record (b.key ^ "/" ^ g.metric)
        (match c with
        | Some c when List.memq g live && ready g -> test g b c
        | _ -> Skipped)
    in
    if c <> None || live = [] then List.iter run gates
    else (
      Printf.printf "%-52s  MISSING\n" b.key;
      record b.key
        (Fail [ "present in the baseline, missing from the fresh run" ]))
  in
  let section (name, _, none) =
    let rows = List.assoc name file.rows in
    let others = List.assoc name other.rows in
    let gates = List.filter (fun g -> g.section = name) table in
    if not compare then record name (check (rows <> []) "%s %s" path none);
    List.iter (on_row (List.filter applies gates) others) rows;
    let across g =
      match g.test with
      | Across a when not compare ->
          let skipped = skip g None in
          let mark (name, st) = record name (if skipped then Skipped else st) in
          List.iter mark (a rows)
      | _ -> ()
    in
    List.iter across gates
  in
  if single_core then
    print_endline
      "check_regression: note: skipping multi-domain gates (nproc=1)";
  if compare then
    Printf.printf "%-52s %12s %12s %8s\n" "gate" "baseline" "fresh" "ratio";
  List.iter section sections

let json_string s =
  let escape = function
    | ('"' | '\\') as c -> Printf.sprintf "\\%c" c
    | c when c < ' ' -> Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  let chars = List.of_seq (String.to_seq s) in
  "\"" ^ String.concat "" (List.map escape chars) ^ "\""

(* Written on success too, so CI can always collect one artifact. *)
let write_verdict file fields violations =
  let item key (g, v) =
    Printf.sprintf "    {\"gate\": %s, \"%s\": %s}" (json_string g) key
      (json_string v)
  in
  let list key items =
    "[\n" ^ String.concat ",\n" (List.map (item key) items) ^ "\n  ]"
  in
  let status = function
    | Pass -> "pass"
    | Fail _ -> "fail"
    | Skipped -> "skipped"
  in
  let gates = List.rev_map (fun (g, s) -> (g, status s)) !results in
  let fields =
    fields
    @ [
        ("pass", string_of_bool (violations = []));
        ("gates_violated", string_of_int (List.length violations));
        ("violations", list "detail" violations);
        ("gates", list "status" gates);
      ]
  in
  let line (k, v) = Printf.sprintf "  \"%s\": %s" k v in
  let text = String.concat ",\n" (List.map line fields) in
  Out_channel.with_open_bin file (fun oc -> Printf.fprintf oc "{\n%s\n}\n" text)

let () =
  let out = ref None and threshold = ref 25.0 in
  let validate_file = ref None and positional = ref [] in
  let usage () =
    prerr_endline
      "usage: check_regression (--validate FILE | BASELINE FRESH \
       [--threshold PCT]) [--out VERDICT.json]";
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--out" :: file :: rest ->
        out := Some file;
        go rest
    | "--threshold" :: pct :: rest when float_of_string_opt pct <> None ->
        threshold := float_of_string pct;
        go rest
    | "--validate" :: file :: rest ->
        validate_file := Some file;
        go rest
    | a :: rest ->
        if String.length a > 1 && a.[0] = '-' then usage ();
        positional := a :: !positional;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  try
    let mode, extra, ok =
      match (!validate_file, List.rev !positional) with
      | Some path, [] ->
          let file = load path in
          evaluate ~threshold:!threshold path file;
          ( "validate",
            [ ("file", json_string path); ("nproc", string_of_int file.nproc) ],
            Printf.sprintf "check_regression: %s ok" path )
      | None, [ baseline; fresh ] ->
          let base = load baseline in
          evaluate ~fresh:(load fresh) ~threshold:!threshold baseline base;
          ( "compare",
            [
              ("baseline", json_string baseline);
              ("fresh", json_string fresh);
              ("threshold_pct", Printf.sprintf "%.1f" !threshold);
            ],
            Printf.sprintf "check_regression: no gate regressed beyond %.0f%%"
              !threshold )
      | _ -> usage ()
    in
    let violations = function
      | g, Fail ds -> List.map (fun d -> (g, d)) ds
      | _ -> []
    in
    let vs = List.concat_map violations (List.rev !results) in
    let schema = ("schema", json_string "cst-padr/check-regression/v2") in
    let fields = schema :: ("mode", json_string mode) :: extra in
    Option.iter (fun file -> write_verdict file fields vs) !out;
    if vs = [] then print_endline ok
    else (
      let fail (g, d) = Printf.printf "check_regression: FAIL %s: %s\n" g d in
      List.iter fail vs;
      Printf.printf "check_regression: %d gate(s) violated\n" (List.length vs);
      exit 1)
  with Bad_input e ->
    flush stdout;
    prerr_endline ("check_regression: " ^ e);
    exit 2
