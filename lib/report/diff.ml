module Json = Pc_util.Json

type kind = Exact | Num | Added | Removed | Structural | Note

type item = {
  path : string;
  kind : kind;
  a : string option;
  b : string option;
  a_num : float option;
  b_num : float option;
  delta : float option;
  tol : float option;
  ok : bool;
}

type report = {
  artifact_schema : string;
  a_label : string;
  b_label : string;
  compared : int;
  items : item list;
}

(* --- paths --- *)

(* Paths are segment lists; list elements extend their list's segment
   with a bracketed key ("results" -> "results[crc32]").  Policy
   matching strips the brackets so one rule covers every element. *)
let seg_base seg =
  match String.index_opt seg '[' with
  | Some i -> String.sub seg 0 i
  | None -> seg

let with_key path key =
  match List.rev path with
  | last :: rest -> List.rev ((last ^ "[" ^ key ^ "]") :: rest)
  | [] -> [ "[" ^ key ^ "]" ]

let path_str path = String.concat "/" path

(* --- per-schema policy --- *)

type policy = P_exact | P_note | P_skip

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Which leaves are deterministic and which are environment — the
   machine-readable half of each schema's determinism contract in
   EXPERIMENTS.md.  Numeric leaves get a tolerance only from a gate's
   [tolerances] globs. *)
let policy_for schema path =
  match (schema, List.map seg_base path) with
  | _, [ "schema" ] -> P_exact
  (* histograms are duration samples; spans are handled by the aligner *)
  | "pc-obs/1", "histograms" :: _ -> P_skip
  (* memo-store miss counts can double on same-key races at -j > 1 *)
  | "pc-obs/1", [ "counters"; c ]
  | "pc-run/1", [ "run"; "metrics"; "counters"; c ]
    when starts_with ~prefix:"exec.store." c ->
    P_note
  (* run records: the digested run object is exact; host/time/argv and
     per-artifact digests (trace timestamps, histogram samples) vary
     run to run by design. *)
  | "pc-run/1", "env" :: _ -> P_skip
  | "pc-run/1", ([ "id" ] | [ "run"; "git" ]) -> P_note
  | "pc-run/1", [ "run"; "artifacts"; ("path" | "digest") ] -> P_note
  | _, _ -> P_exact

(* Keyed lists align order-insensitively on a stable identity; unkeyed
   lists align by index. *)
let list_key schema path =
  let str k v = Option.bind (Json.member k v) Json.to_string in
  let get k v i = Option.value ~default:(Printf.sprintf "#%d" i) (str k v) in
  match (schema, List.map seg_base path) with
  | "pc-sample/1", [ "programs" ] ->
    Some (fun i v -> get "bench" v i ^ "/" ^ get "kind" v i)
  | ("pc-fidelity/1" | "pc-tune/1"), [ "benchmarks" ] ->
    Some (fun i v -> get "bench" v i)
  | "pc-scenario/1", [ "scenarios" ] -> Some (fun i v -> get "name" v i)
  | "pc-run/1", [ "run"; "artifacts" ] -> Some (fun i v -> get "schema" v i)
  | _ -> None

(* --- walking --- *)

type ctx = { mutable compared : int; mutable items : item list }

let add ctx it = ctx.items <- it :: ctx.items

let item ?a ?b ?a_num ?b_num ?delta ~ok path kind =
  { path = path_str path; kind; a; b; a_num; b_num; delta; tol = None; ok }

let pp_value = function
  | Json.Null -> "null"
  | Json.Bool v -> string_of_bool v
  | Json.Num lit ->
    let f = float_of_string lit in
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f
  | Json.Str s -> Printf.sprintf "%S" s
  | Json.List l -> Printf.sprintf "[%d items]" (List.length l)
  | Json.Obj l -> Printf.sprintf "{%d fields}" (List.length l)

let one_sided ctx schema path kind v =
  match policy_for schema path with
  | P_skip -> ()
  | pol ->
    ctx.compared <- ctx.compared + 1;
    let rendered = Some (pp_value v) in
    let a, b = if kind = Removed then (rendered, None) else (None, rendered) in
    add ctx (item ?a ?b ~ok:(pol = P_note) path kind)

let leaf ctx schema path a b =
  match policy_for schema path with
  | P_skip -> ()
  | pol -> (
    ctx.compared <- ctx.compared + 1;
    (* numbers compare by value: [1.0] and [1.000000] are the same leaf *)
    match (Json.to_float a, Json.to_float b) with
    | Some x, Some y when not (Float.equal x y) ->
      add ctx
        (item ~a:(pp_value a) ~b:(pp_value b) ~a_num:x ~b_num:y ~delta:(y -. x)
           ~ok:(pol = P_note) path
           (if pol = P_note then Note else Num))
    | Some _, Some _ -> ()
    | _ when a = b -> ()
    | _ ->
      let same_shape =
        match (a, b) with
        | Json.Bool _, Json.Bool _ | Json.Str _, Json.Str _ -> true
        | _ -> false
      in
      let kind =
        if pol = P_note then Note else if same_shape then Exact else Structural
      in
      add ctx
        (item ~a:(pp_value a) ~b:(pp_value b) ~ok:(pol = P_note) path kind))

let span_name v =
  Option.value ~default:"?" (Option.bind (Json.member "name" v) Json.to_string)

let span_children v =
  match Json.member "children" v with Some (Json.List l) -> l | _ -> []

let span_sum key spans =
  List.fold_left
    (fun acc s ->
      acc +. Option.value ~default:0.0 (Option.bind (Json.member key s) Json.to_float))
    0.0 spans

(* Skips prune whole subtrees: [env] is an object, [histograms] a map
   of lists, and neither should surface even structural mismatches. *)
let rec walk ctx schema path a b =
  if path <> [] && policy_for schema path = P_skip then ()
  else
    match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    List.iter
      (fun (k, va) ->
        match List.assoc_opt k fb with
        | Some vb -> walk ctx schema (path @ [ k ]) va vb
        | None -> one_sided ctx schema (path @ [ k ]) Removed va)
      fa;
    List.iter
      (fun (k, vb) ->
        if not (List.mem_assoc k fa) then
          one_sided ctx schema (path @ [ k ]) Added vb)
      fb
  | Json.List la, Json.List lb ->
    if schema = "pc-obs/1" && List.map seg_base path = [ "spans" ] then
      walk_spans ctx path la lb
    else walk_list ctx schema path la lb
  | a, b -> leaf ctx schema path a b

and walk_list ctx schema path la lb =
  match list_key schema path with
  | Some key ->
    let tag l = List.mapi (fun i v -> (key i v, v)) l in
    let ka = tag la and kb = tag lb in
    List.iter
      (fun (k, va) ->
        match List.assoc_opt k kb with
        | Some vb -> walk ctx schema (with_key path k) va vb
        | None -> one_sided ctx schema (with_key path k) Removed va)
      ka;
    List.iter
      (fun (k, vb) ->
        if not (List.mem_assoc k ka) then
          one_sided ctx schema (with_key path k) Added vb)
      kb
  | None ->
    let na = List.length la and nb = List.length lb in
    ctx.compared <- ctx.compared + 1;
    if na <> nb then
      add ctx
        (item
           ~a:(Printf.sprintf "%d items" na)
           ~b:(Printf.sprintf "%d items" nb)
           ~ok:false path Structural);
    List.iteri
      (fun i (va, vb) ->
        walk ctx schema (with_key path (string_of_int i)) va vb)
      (List.combine
         (List.filteri (fun i _ -> i < min na nb) la)
         (List.filteri (fun i _ -> i < min na nb) lb))

(* Span trees: sibling order is completion order — scheduling-dependent
   at -j > 1 — so siblings are grouped by name and compared as groups:
   the per-name count is deterministic (drift), summed durations are
   wall-clock (notes). *)
and walk_spans ctx path la lb =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let feed side spans =
    List.iter
      (fun s ->
        let n = span_name s in
        let a_l, b_l =
          match Hashtbl.find_opt tbl n with
          | Some p -> p
          | None ->
            order := n :: !order;
            ([], [])
        in
        Hashtbl.replace tbl n
          (match side with
          | `A -> (s :: a_l, b_l)
          | `B -> (a_l, s :: b_l)))
      spans
  in
  feed `A la;
  feed `B lb;
  List.iter
    (fun n ->
      let a_l, b_l = Hashtbl.find tbl n in
      let a_l = List.rev a_l and b_l = List.rev b_l in
      let p = with_key path n in
      ctx.compared <- ctx.compared + 1;
      if List.length a_l <> List.length b_l then
        add ctx
          (item
             ~a:(Printf.sprintf "%d spans" (List.length a_l))
             ~b:(Printf.sprintf "%d spans" (List.length b_l))
             ~ok:false p Structural)
      else begin
        List.iter
          (fun key ->
            let x = span_sum key a_l and y = span_sum key b_l in
            if not (Float.equal x y) then
              add ctx
                (item
                   ~a:(Printf.sprintf "%g" x)
                   ~b:(Printf.sprintf "%g" y)
                   ~a_num:x ~b_num:y ~delta:(y -. x) ~ok:true
                   (p @ [ key ])
                   Note))
          [ "duration_s"; "self_s" ];
        walk_spans ctx p
          (List.concat_map span_children a_l)
          (List.concat_map span_children b_l)
      end)
    (List.rev !order)

(* --- trace timelines --- *)

let args_sig args =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (pp_value v)) args)

(* The tracer's -j contract: the multiset of span (name, args), instant
   (name, args) and flow (phase, name, id) events is identical at every
   pool width; nesting (lane assignment) and timestamps are not. *)
let trace_multiset (tr : Trace.t) =
  let tbl = Hashtbl.create 256 in
  let order = ref [] in
  let bump k =
    (match Hashtbl.find_opt tbl k with
    | None -> order := k :: !order
    | Some _ -> ());
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.ph with
      | "B" -> bump (Printf.sprintf "span %s{%s}" e.Trace.name (args_sig e.Trace.args))
      | "i" ->
        bump (Printf.sprintf "instant %s{%s}" e.Trace.name (args_sig e.Trace.args))
      | "s" | "t" | "f" ->
        bump (Printf.sprintf "flow:%s %s#%d" e.Trace.ph e.Trace.name e.Trace.id)
      | _ -> ())
    tr.Trace.events;
  (tbl, List.rev !order)

(* B/E balance per span name (E events carry no args). *)
let trace_balance (tr : Trace.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let bump d =
        Hashtbl.replace tbl e.Trace.name
          (d + Option.value ~default:0 (Hashtbl.find_opt tbl e.Trace.name))
      in
      match e.Trace.ph with "B" -> bump 1 | "E" -> bump (-1) | _ -> ())
    tr.Trace.events;
  Hashtbl.fold (fun n d acc -> if d <> 0 then (n, d) :: acc else acc) tbl []

(* Per-name-path durations from B/E pairing, aggregated across tracks:
   informational only — a task nests under its caller at -j1 but roots
   a worker lane at -j4. *)
let trace_durations (tr : Trace.t) =
  let stacks = Hashtbl.create 8 in
  let durs = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.Trace.tid) in
      match e.Trace.ph with
      | "B" ->
        Hashtbl.replace stacks e.Trace.tid ((e.Trace.name, e.Trace.ts) :: stack)
      | "E" -> (
        match stack with
        | [] -> ()
        | (_, t0) :: rest ->
          Hashtbl.replace stacks e.Trace.tid rest;
          let path =
            String.concat "/" (List.rev_map fst stack)
          in
          let c, total =
            Option.value ~default:(0, 0.0) (Hashtbl.find_opt durs path)
          in
          if c = 0 then order := path :: !order;
          Hashtbl.replace durs path (c + 1, total +. (e.Trace.ts -. t0)))
      | _ -> ())
    tr.Trace.events;
  (durs, List.rev !order)

let diff_trace ctx ta tb =
  let ma, oa = trace_multiset ta in
  let mb, ob = trace_multiset tb in
  let keys =
    oa @ List.filter (fun k -> not (Hashtbl.mem ma k)) ob
  in
  List.iter
    (fun k ->
      let ca = Option.value ~default:0 (Hashtbl.find_opt ma k) in
      let cb = Option.value ~default:0 (Hashtbl.find_opt mb k) in
      ctx.compared <- ctx.compared + 1;
      if ca <> cb then
        add ctx
          (item
             ~a:(Printf.sprintf "%d" ca)
             ~b:(Printf.sprintf "%d" cb)
             ~a_num:(float_of_int ca) ~b_num:(float_of_int cb)
             ~delta:(float_of_int (cb - ca))
             ~ok:false [ "events"; k ] Structural))
    keys;
  List.iter
    (fun (side, balance) ->
      List.iter
        (fun (name, d) ->
          add ctx
            (item
               ~a:(Printf.sprintf "%+d unmatched B/E in %s" d side)
               ~ok:false
               [ "events"; "unbalanced"; name ]
               Structural))
        balance)
    [ ("a", trace_balance ta); ("b", trace_balance tb) ];
  let da, orda = trace_durations ta in
  let db, ordb = trace_durations tb in
  let paths = orda @ List.filter (fun p -> not (Hashtbl.mem da p)) ordb in
  List.iter
    (fun p ->
      match (Hashtbl.find_opt da p, Hashtbl.find_opt db p) with
      | Some (_, ua), Some (_, ub) ->
        if not (Float.equal ua ub) then
          add ctx
            (item
               ~a:(Printf.sprintf "%.0f us" ua)
               ~b:(Printf.sprintf "%.0f us" ub)
               ~a_num:ua ~b_num:ub ~delta:(ub -. ua) ~ok:true
               [ "tracks"; p ] Note)
      | Some (_, ua), None ->
        add ctx
          (item ~a:(Printf.sprintf "%.0f us" ua) ~ok:true [ "tracks"; p ] Note)
      | None, Some (_, ub) ->
        add ctx
          (item ~b:(Printf.sprintf "%.0f us" ub) ~ok:true [ "tracks"; p ] Note)
      | None, None -> ())
    paths

(* --- entry points --- *)

let diff ~a_label ~b_label ja jb =
  match (Json.schema ja, Json.schema jb) with
  | None, _ -> Error (Printf.sprintf "%s: no recognisable schema" a_label)
  | _, None -> Error (Printf.sprintf "%s: no recognisable schema" b_label)
  | Some sa, Some sb when sa <> sb ->
    Error (Printf.sprintf "schema mismatch: %s is %s, %s is %s" a_label sa
             b_label sb)
  | Some s, Some _ ->
    let ctx = { compared = 0; items = [] } in
    let result =
      if s = "pc-trace/1" then
        match (Trace.parse ja, Trace.parse jb) with
        | Ok ta, Ok tb ->
          diff_trace ctx ta tb;
          Ok ()
        | Error e, _ -> Error (Printf.sprintf "%s: %s" a_label e)
        | _, Error e -> Error (Printf.sprintf "%s: %s" b_label e)
      else begin
        walk ctx s [] ja jb;
        Ok ()
      end
    in
    Result.map
      (fun () ->
        {
          artifact_schema = s;
          a_label;
          b_label;
          compared = ctx.compared;
          items = List.rev ctx.items;
        })
      result

let diff_files a b =
  match Json.parse_file a with
  | Error e -> Error (Printf.sprintf "%s: %s" a e)
  | Ok ja -> (
    match Json.parse_file b with
    | Error e -> Error (Printf.sprintf "%s: %s" b e)
    | Ok jb -> diff ~a_label:a ~b_label:b ja jb)

let drift (r : report) = List.filter (fun it -> not it.ok) r.items
let notes (r : report) = List.filter (fun it -> it.ok) r.items

(* --- rendering --- *)

let kind_str = function
  | Exact -> "exact"
  | Num -> "num"
  | Added -> "added"
  | Removed -> "removed"
  | Structural -> "structural"
  | Note -> "note"

let doc (r : report) =
  let opt f = Option.fold ~none:Json.Null ~some:f in
  let item it =
    Json.Obj
      [
        ("path", Json.Str it.path);
        ("kind", Json.Str (kind_str it.kind));
        ("a", opt (fun s -> Json.Str s) it.a);
        ("b", opt (fun s -> Json.Str s) it.b);
        ("delta", opt Json.float it.delta);
        ("tol", opt Json.float it.tol);
        ("ok", Json.Bool it.ok);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "pc-diff/1");
      ("artifact_schema", Json.Str r.artifact_schema);
      ("a", Json.Str r.a_label);
      ("b", Json.Str r.b_label);
      ("compared", Json.int r.compared);
      ("drift", Json.int (List.length (drift r)));
      ("items", Json.List (List.map item r.items));
    ]

let to_json r = Json.encode (doc r)
let write_json path r = Json.to_file path (doc r)

let pp ppf (r : report) =
  Format.fprintf ppf "pc_diff: %s@." r.artifact_schema;
  Format.fprintf ppf "  a: %s@.  b: %s@." r.a_label r.b_label;
  List.iter
    (fun it ->
      Format.fprintf ppf "  %-5s %-10s %-44s %s -> %s%s@."
        (if it.ok then "note" else "DRIFT")
        (kind_str it.kind) it.path
        (Option.value ~default:"-" it.a)
        (Option.value ~default:"-" it.b)
        (match it.delta with
        | Some d when it.kind <> Note -> Format.asprintf " (delta %+g)" d
        | _ -> ""))
    r.items;
  Format.fprintf ppf "  %d compared, %d drift, %d notes@." r.compared
    (List.length (drift r))
    (List.length (notes r))

(* --- thresholds --- *)

type thresholds = {
  max_drift : int;
  ignore_paths : string list;
  tolerances : (string * float) list;
}

let default_thresholds = { max_drift = 0; ignore_paths = []; tolerances = [] }

let thresholds_of_json j =
  match Json.schema j with
  | Some "pc-diff-thresholds/1" ->
    let max_drift =
      Option.value ~default:0 (Option.bind (Json.member "max_drift" j) Json.to_int)
    in
    let ignore_paths =
      match Json.member "ignore" j with
      | Some (Json.List l) -> List.filter_map Json.to_string l
      | _ -> []
    in
    let tolerances =
      match Json.member "tolerances" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
          fields
      | _ -> []
    in
    Ok { max_drift; ignore_paths; tolerances }
  | _ -> Error "not a pc-diff-thresholds/1 document"

let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pat.[pi] with
      | '*' -> go (pi + 1) si || (si < ns && go pi (si + 1))
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let apply th (r : report) =
  let items =
    List.map
      (fun it ->
        if it.ok then it
        else if List.exists (fun p -> glob_match p it.path) th.ignore_paths then
          { it with ok = true }
        else
          match
            ( it.a_num,
              it.b_num,
              List.find_opt (fun (p, _) -> glob_match p it.path) th.tolerances )
          with
          | Some x, Some y, Some (_, rel) ->
            let ok =
              Float.abs (y -. x)
              <= rel *. Float.max (Float.abs x) (Float.abs y)
            in
            { it with tol = Some rel; ok }
          | _ -> it)
      r.items
  in
  { r with items }

let gate th r = List.length (drift (apply th r)) <= th.max_drift

(* --- pc-run/1 recursion --- *)

let run_artifact_pairs ja jb =
  let arts j =
    match
      Option.bind (Json.member "run" j) (fun run ->
          Option.bind (Json.member "artifacts" run) Json.to_list)
    with
    | None -> []
    | Some l ->
      List.filter_map
        (fun a ->
          match
            ( Option.bind (Json.member "schema" a) Json.to_string,
              Option.bind (Json.member "path" a) Json.to_string )
          with
          | Some s, Some p -> Some (s, p)
          | _ -> None)
        l
  in
  List.filter_map
    (fun (s, pa) ->
      Option.map (fun (_, pb) -> (s, pa, pb))
        (List.find_opt (fun (sb, _) -> sb = s) (arts jb)))
    (arts ja)
