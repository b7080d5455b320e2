(* Clocks, allocation and memory readings, CPU pinning, and the order
   statistics the benchmark reports. *)

external now : unit -> float = "perfbench_monotonic_s"
(** Seconds on the monotonic clock. *)

external maxrss_kb : unit -> int = "perfbench_maxrss_kb"

let peak_rss_mb () = float_of_int (maxrss_kb ()) /. 1024.0

external pin_to_current_cpu : unit -> int = "perfbench_pin_to_current_cpu"
(** Pin the calling thread, and the threads and processes it starts
    later, to the CPU it runs on; that CPU, or -1 if it stays unpinned. *)

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Words allocated by the calling domain so far (minor plus direct major
   allocations).  Probes run on the main domain, so deltas of this are
   exactly what the probed call allocated. *)
let allocated_words () =
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Zero instead of NaN/infinity when a ratio has nothing to divide: the
   per-layer rows of a layer a workload never enters read 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
