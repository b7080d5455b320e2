(* The machine's speed during a pass, measured beside it.

   The shared machines this benchmark runs on change speed by a fifth
   and more, in bursts of a second and stretches that outlast a run, so
   raw pass times of identical work spread across runs far more than the
   changes they must resolve, and a loop timed between passes samples
   the wrong moments.  So a timed run starts a sampler process (this
   executable with --speed-sampler) that runs a fixed integer loop in
   chunks of about 0.2 ms at a 10% duty cycle and logs each quarter
   second's mean chunk time.  A -j 1 workload pins itself, and so the
   sampler, to one CPU: the two CPUs of such a machine change speed
   apart as well as together, and a sampler on the other CPU tracked
   the passes poorly.  A pass's paced time is its raw time × [reference_chunk_s] ÷ the
   mean chunk time logged while it ran: what it would take at the
   machine's reference speed.  The sampler is benchmark code and
   allocates nothing in its loop, so no library change moves it. *)

(* The chunk time at the usual speed of a shared 2-core 2.0 GHz Xeon
   virtual machine, so paced seconds read close to raw ones on it. *)
let reference_chunk_s = 0.000225

let window_s = 0.25

let chunk () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 20_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    if !x land 1 = 0 then incr acc
  done;
  !acc

(* The sampler process: log "time mean-chunk-seconds" lines until the
   parent kills it, or exits, or fifteen minutes pass. *)
let sampler_main () =
  let parent = Unix.getppid () and start = Measure.now () and sink = ref 0 in
  while Unix.getppid () = parent && Measure.now () -. start < 900.0 do
    let t0 = Measure.now () and sum = ref 0.0 and n = ref 0 in
    while Measure.now () -. t0 < window_s do
      let (), d = Measure.time (fun () -> sink := !sink + chunk ()) in
      sum := !sum +. d;
      incr n;
      Unix.sleepf (9.0 *. d)
    done;
    Printf.printf "%.6f %.9f\n%!" (t0 +. (window_s /. 2.0)) (!sum /. float_of_int !n)
  done;
  if !sink < 0 then print_newline ()

type t = { pid : int; log : string }

let start ~dir =
  let log = Filename.concat dir "speed.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--speed-sampler" |]
          Unix.stdin fd Unix.stderr)
  in
  { pid; log }

(* Stop the sampler, wait for it, and return its (time, chunk) log. *)
let stop t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  let ic = open_in t.log in
  let rec lines acc =
    match input_line ic with
    | l -> (
      match String.split_on_char ' ' l with
      | [ a; b ] -> (
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some a, Some b -> lines ((a, b) :: acc)
        | _ -> lines acc)
      | _ -> lines acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines [])

(* The paced time of a pass that ran from [t0] for [seconds]; the raw
   time when the sampler logged fewer than three windows inside it. *)
let pace samples ~t0 ~seconds =
  match List.filter (fun (t, _) -> t >= t0 && t <= t0 +. seconds) samples with
  | _ :: _ :: _ :: _ as inside ->
    seconds *. reference_chunk_s /. Measure.mean (List.map snd inside)
  | _ -> seconds
