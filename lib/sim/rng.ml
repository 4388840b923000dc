(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable
   state : int64] field would box a fresh int64 on every draw, and a
   draw sits on every message send. *)
type t = Bytes.t

external get_state : t -> int -> int64 = "%caml_bytes_get64u"
external set_state : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = create (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo; bias is negligible for simulation bounds.
     Mask to 62 bits so the value fits OCaml's int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0 (* 2^53 *)

let[@inline] float t = unit_float (int64 t)

(* Keyed by [mix64 key], not [key], so the values are not those of the
   generator [create key] draws. *)
let[@inline] hash_float key i =
  unit_float (mix64 (Int64.add (mix64 key) (Int64.mul (Int64.of_int i) golden_gamma)))

let bool t = Int64.logand (int64 t) 1L = 1L

let chance t p = float t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t m xs =
  let a = Array.of_list xs in
  shuffle t a;
  let m = min m (Array.length a) in
  Array.to_list (Array.sub a 0 m)
