(* Operation accounting for one benchmark run.

   Every public library call a pass makes and every check of its output
   is one attempted operation.  A call that raises, or a check that does
   not hold, is one failed operation, and the pass goes on with whatever
   does not depend on it.  A failed check also marks the run's output
   incorrect; a call that raised produced no output, so it fails without
   making the output wrong. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  mutable raised : string list;  (* name of every call that raised *)
  mutable notes : string list;  (* newest first, duplicates kept once *)
}

let create () = { attempted = 0; failed = 0; incorrect = 0; raised = []; notes = [] }

let note t msg = if not (List.mem msg t.notes) then t.notes <- msg :: t.notes

let check t name ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.incorrect <- t.incorrect + 1;
    note t ("check failed: " ^ name)
  end

let call t name f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    t.failed <- t.failed + 1;
    t.raised <- name :: t.raised;
    note t (Printf.sprintf "%s raised %s" name (Printexc.to_string e));
    None

let correct t = t.incorrect = 0
let notes t = List.rev t.notes

(* A run repeats one pass as often as its time allows, so it counts the
   operations of a single pass, and its counts do not depend on how many
   passes fit: those of the first pass, plus one check that every other
   pass came out the same.  A pass whose calls or checks came out
   differently fails that check, and its notes are kept. *)
let add_passes t = function
  | [] -> ()
  | first :: _ as passes ->
    t.attempted <- t.attempted + first.attempted;
    t.failed <- t.failed + first.failed;
    t.incorrect <- t.incorrect + first.incorrect;
    t.raised <- first.raised @ t.raised;
    List.iter (fun p -> List.iter (note t) (notes p)) passes;
    let outcome p = (p.attempted, p.failed, p.incorrect, p.raised, p.notes) in
    check t "same outcome on every pass"
      (List.for_all (fun p -> outcome p = outcome first) passes)
