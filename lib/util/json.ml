type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- numbers --- *)

let int i = Num (string_of_int i)

(* JSON has no NaN/Infinity literals: a non-finite value degrades to
   null rather than corrupting the document. *)
let fixed digits f =
  if Float.is_finite f then Num (Printf.sprintf "%.*f" digits f) else Null

let float f = if Float.is_finite f then Num (Printf.sprintf "%.9g" f) else Null

(* --- printing --- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let write_seq b opening closing f items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    items;
  Buffer.add_char b closing

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num lit -> Buffer.add_string b lit
  | Str s -> escape b s
  | List items -> write_seq b '[' ']' (write b) items
  | Obj fields ->
    write_seq b '{' '}'
      (fun (k, v) ->
        escape b k;
        Buffer.add_char b ':';
        write b v)
      fields

let encode v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.contents b

let to_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (encode v);
      output_char oc '\n')

(* --- parsing --- *)

exception Fail of int * string

(* Recursive-descent parser over the raw string; [pos] is the cursor. *)
type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
      st.pos <- st.pos + 1;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let is_hex = function
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
            | _ -> false
          in
          if
            st.pos + 4 > String.length st.src
            || not (String.for_all is_hex (String.sub st.src st.pos 4))
          then fail st "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub st.src st.pos 4) in
          st.pos <- st.pos + 4;
          (* Escaped control characters are ASCII in our schemas; wider
             code points are emitted raw by the writers, never escaped. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else fail st "non-ASCII \\u escape unsupported"
        | _ -> fail st "bad escape");
        loop ())
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char b c;
      loop ()
  in
  loop ();
  Buffer.contents b

(* RFC 8259: [-]? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?  The
   literal is kept verbatim, so only valid JSON can be copied out. *)
let parse_number st =
  let start = st.pos in
  let digit () =
    match peek st with Some '0' .. '9' -> true | _ -> false
  in
  let digits () =
    if not (digit ()) then fail st "expected digit";
    while digit () do
      st.pos <- st.pos + 1
    done
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  if peek st = Some '0' then begin
    st.pos <- st.pos + 1;
    if digit () then fail st "leading zero in number"
  end
  else digits ();
  if peek st = Some '.' then begin
    st.pos <- st.pos + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    st.pos <- st.pos + 1;
    (match peek st with Some ('+' | '-') -> st.pos <- st.pos + 1 | _ -> ());
    digits ()
  | _ -> ());
  String.sub st.src start (st.pos - start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elements ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length src then Ok v
    else Error (Printf.sprintf "trailing input at byte %d" st.pos)
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "parse error at byte %d: %s" pos msg)

let parse_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    parse contents

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let schema j =
  match member "schema" j with
  | Some (Str s) -> Some s
  | _ -> (
    match Option.bind (member "otherData" j) (member "schema") with
    | Some (Str s) -> Some s
    | _ -> None)

let to_list = function List l -> Some l | _ -> None
let to_float = function Num lit -> float_of_string_opt lit | _ -> None

let to_int v =
  match to_float v with
  (* [is_integer] is true of infinities, whose [int_of_float] is
     undefined: require finiteness before converting. *)
  | Some f when Float.is_finite f && Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
