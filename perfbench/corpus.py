"""Seeded synthetic PGN corpora, EPD suites and their expected books.

Games are played with the public ``openbook.rules`` API only
(``initial_position``, ``legal_moves``, ``emit_san``, ``apply_move`` and
``position_key``). While a game is written, the generator tallies the
book a correct ``openbook build`` must produce from it, so the output of
the build path can be checked without running that path.

Opening plies come from a seeded tree in which a node's k-th most popular
move is chosen with weight ``decay ** k``: the log-linear decay of move
popularity seen in published books (about 0.46 per rank for a human book
and 0.52 for an engine book, from their top-10 first-move tables).

The PGN carries what mainstream exports carry: tag pairs, ``{}`` comments
with ``[%clk]``, NAGs, ``!``/``?`` suffixes, short variations, wrapped
movetext and ``N...`` black move numbers. It leaves out ``;`` comments and
``FEN``/``SetUp`` games: exports rarely carry them, and this is a
benchmark, not a fuzz harness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from openbook import rules

RESULT_TALLY = {"1-0": (1, 0, 0), "1/2-1/2": (0, 1, 0), "0-1": (0, 0, 1)}
TREE_WIDTH = 8  # moves per opening-tree node that can be chosen
LINE_WIDTH = 79

Tally = Dict[str, Dict[str, List[int]]]  # key -> san -> [games, w, d, b]


@dataclass
class CorpusSpec:
    """Shape of one generated corpus."""

    name: str
    games: int
    plies: int            # mean game length; each game is within +-10%
    depth: int            # plies recorded by the build under test
    tree_plies: int = 0   # leading plies drawn from the opening tree
    decay: float = 0.46
    files: int = 1
    min_rating: Optional[int] = None
    low_rated_share: float = 0.0   # games with a player below min_rating
    unknown_result_share: float = 0.0
    malformed_share: float = 0.0


@dataclass
class Corpus:
    """Generated PGN files plus the book a correct build must write."""

    spec: CorpusSpec
    paths: List[str]
    tally: Tally = field(default_factory=dict)
    recorded_paths: List[List[Tuple[str, str]]] = field(default_factory=list)
    malformed: List[int] = field(default_factory=list)  # per-file indices
    plies_parsed: int = 0
    plies_recorded: int = 0
    plies_past_depth: int = 0
    filtered: int = 0

    @property
    def recorded(self) -> int:
        return len(self.recorded_paths)


class OpeningTree:
    """Seeded move-popularity tree shared by every corpus built on it.

    Each node's move order depends only on the tree seed and the node's
    path, so two corpora with different decay rates rank the same moves
    in the same order and differ only in how often they play them.
    """

    def __init__(self, seed: str):
        self.seed = seed
        self.root = _Node(rules.initial_position(), "")

    def walk(self, rng: random.Random, plies: int, decay: float):
        """Yield (node, san) along one seeded path through the tree."""
        weights = [decay ** k for k in range(TREE_WIDTH)]
        node = self.root
        for _ in range(plies):
            node.expand(self.seed)
            width = len(node.moves)
            if not width:
                return
            index = rng.choices(range(width), weights[:width])[0]
            yield node, index
            node = node.child(index)


class _Node:
    __slots__ = ("pos", "path", "key", "moves", "sans", "children")

    def __init__(self, pos: rules.Position, path: str):
        self.pos = pos
        self.path = path
        self.key: Optional[str] = None
        self.moves: Optional[list] = None
        self.sans: Dict[int, str] = {}
        self.children: Dict[int, "_Node"] = {}

    def expand(self, seed: str) -> None:
        if self.moves is not None:
            return
        moves = rules.legal_moves(self.pos)
        random.Random(f"tree:{seed}:{self.path}").shuffle(moves)
        self.moves = moves[:TREE_WIDTH]
        self.key = rules.position_key(self.pos)

    def san(self, index: int) -> str:
        san = self.sans.get(index)
        if san is None:
            san = self.sans[index] = rules.emit_san(self.pos, self.moves[index])
        return san

    def child(self, index: int) -> "_Node":
        node = self.children.get(index)
        if node is None:
            node = _Node(rules.apply_move(self.pos, self.moves[index]),
                         f"{self.path} {self.san(index)}")
            self.children[index] = node
        return node


class _MovetextWriter:
    """Formats one game's movetext the way common exporters do."""

    def __init__(self, rng: random.Random, clocks: bool):
        self.rng = rng
        self.clocks = clocks
        self.tokens: List[str] = []
        self.needs_number = True
        self.clock = 300

    def move(self, ply: int, san: str) -> None:
        rng = self.rng
        number = ply // 2 + 1
        if ply % 2 == 0:
            self.tokens.append(f"{number}.")
        elif self.needs_number:
            self.tokens.append(f"{number}...")
        self.needs_number = False
        roll = rng.random()
        if roll < 0.02:
            san += rng.choice(("!", "?", "!?", "?!"))
        elif roll < 0.04:
            self.tokens.append(san)
            san = f"${rng.randint(1, 6)}"
        self.tokens.append(san)
        if self.clocks:
            self.clock = max(1, self.clock - rng.randint(0, 9))
            self.tokens.append(f"{{[%clk 0:{self.clock // 60:02d}:{self.clock % 60:02d}]}}")
            self.needs_number = True
        if rng.random() < 0.01:
            self.tokens.append("{ Inaccuracy. Nf3 was best. }")
            self.needs_number = True

    def variation(self, ply: int, pos: rules.Position, played: rules.Move) -> None:
        """A one-move variation giving another legal move at this ply."""
        alternatives = [m for m in rules.legal_moves(pos) if m != played]
        if not alternatives:
            return
        alt = self.rng.choice(alternatives)
        number = ply // 2 + 1
        prefix = f"{number}." if ply % 2 == 0 else f"{number}..."
        self.tokens.append(f"({prefix} {rules.emit_san(pos, alt)})")
        self.needs_number = True

    def lines(self, result: str) -> List[str]:
        out, line = [], ""
        for token in self.tokens + [result]:
            if line and len(line) + 1 + len(token) > LINE_WIDTH:
                out.append(line)
                line = token
            else:
                line = f"{line} {token}" if line else token
        out.append(line)
        return out


def _impossible_king_move(pos: rules.Position) -> str:
    """SAN for a king move of two or more squares: never legal."""
    king = "K" if pos.turn == rules.WHITE else "k"
    king_sq = pos.board.index(king)
    far = [sq for sq in rules.SQUARES
           if max(abs((sq & 7) - (king_sq & 7)), abs((sq >> 4) - (king_sq >> 4))) >= 2
           and (pos.board[sq] is None or pos.board[sq].isupper() != king.isupper())]
    target = far[len(far) // 2]
    return "K" + ("x" if pos.board[target] else "") + rules.square_name(target)


def _ratings(rng: random.Random, low: bool, bar: Optional[int]) -> Tuple[int, int]:
    if bar is None:
        return rng.randint(1600, 2800), rng.randint(1600, 2800)
    if low:
        pair = [rng.randint(1400, bar - 1), rng.randint(1400, 2800)]
        rng.shuffle(pair)
        return pair[0], pair[1]
    return rng.randint(bar, 2800), rng.randint(bar, 2800)


def generate(spec: CorpusSpec, seed: int, tree: Optional[OpeningTree],
             directory: str) -> Corpus:
    """Write ``spec.files`` PGN files under ``directory`` and tally them."""
    rng = random.Random(f"{spec.name}:{seed}")
    n = spec.games
    low = set(rng.sample(range(n), round(n * spec.low_rated_share)))
    unknown = set(rng.sample(range(n), round(n * spec.unknown_result_share)))
    broken = set(rng.sample(range(n), round(n * spec.malformed_share)))
    per_file = -(-n // spec.files)
    corpus = Corpus(spec, [])
    for file_index in range(spec.files):
        path = f"{directory}/{spec.name}-{file_index + 1}.pgn"
        corpus.paths.append(path)
        chunks = []
        first = file_index * per_file
        for local, game in enumerate(range(first, min(n, first + per_file)), 1):
            chunks.append(_game(spec, rng, tree, game, local, game in low,
                                game in unknown, game in broken, corpus))
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(chunks))
    return corpus


def _game(spec: CorpusSpec, rng: random.Random, tree: Optional[OpeningTree],
          game: int, local_index: int, low: bool, unknown: bool, broken: bool,
          corpus: Corpus) -> str:
    length = rng.randint(spec.plies * 9 // 10, spec.plies * 11 // 10)
    writer = _MovetextWriter(rng, clocks=rng.random() < 0.5)
    path: List[Tuple[str, str]] = []
    break_at = rng.randint(length // 3, 2 * length // 3) if broken else -1
    pos = rules.initial_position()
    ply = 0
    last_san = ""
    if tree is not None:
        for node, index in tree.walk(rng, min(spec.tree_plies, length), spec.decay):
            last_san = node.san(index)
            if ply < spec.depth:
                path.append((node.key, last_san))
            writer.move(ply, last_san)
            pos = node.child(index).pos
            ply += 1
    while ply < length:
        if ply == break_at:
            writer.move(ply, _impossible_king_move(pos))
            ply += 1
            break
        moves = rules.legal_moves(pos)
        if not moves:
            break
        move = rng.choice(moves)
        san = rules.emit_san(pos, move)
        if ply < spec.depth:
            path.append((rules.position_key(pos), san))
        writer.move(ply, san)
        if ply < 30 and rng.random() < 0.02:
            writer.variation(ply, pos, move)
        last_san = san
        pos = rules.apply_move(pos, move)
        ply += 1

    if unknown:
        result = "*"
    elif last_san.endswith("#"):
        result = "1-0" if ply % 2 == 1 else "0-1"
    else:
        result = rng.choice(("1-0", "1/2-1/2", "0-1"))
    white_elo, black_elo = _ratings(rng, low, spec.min_rating)
    tags = [("Event", "Synthetic Rated Blitz"), ("Site", "local"),
            ("Date", f"2024.{game % 12 + 1:02d}.{game % 28 + 1:02d}"),
            ("Round", str(game + 1)), ("White", f"player{rng.randint(1, 999)}"),
            ("Black", f"player{rng.randint(1, 999)}"), ("Result", result),
            ("WhiteElo", str(white_elo)), ("BlackElo", str(black_elo)),
            ("TimeControl", "300+0")]
    text = "\n".join(f'[{name} "{value}"]' for name, value in tags)
    text += "\n\n" + "\n".join(writer.lines(result)) + "\n"

    parsed = break_at if broken else ply
    corpus.plies_parsed += parsed
    corpus.plies_past_depth += max(0, parsed - spec.depth)
    if broken:
        corpus.malformed.append(local_index)
        return text
    if unknown or low:
        corpus.filtered += 1
        return text
    tally = RESULT_TALLY[result]
    for key, san in path:
        entry = corpus.tally.setdefault(key, {}).setdefault(san, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += tally[0]
        entry[2] += tally[1]
        entry[3] += tally[2]
    corpus.plies_recorded += len(path)
    corpus.recorded_paths.append(path)
    return text


def write_suite(path: str, tally1: Tally, tally2: Tally, size: int) -> List[str]:
    """Write an EPD suite of book 1's most played positions, half also in book 2.

    Returns the suite's position keys in file order.
    """
    def popularity(key):
        return -sum(entry[0] for entry in tally1[key].values()), key

    shared = sorted((k for k in tally1 if k in tally2), key=popularity)
    only1 = sorted((k for k in tally1 if k not in tally2), key=popularity)
    half = min(size // 2, len(shared))
    keys = shared[:half] + only1[:size - half]
    keys.sort()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for number, key in enumerate(keys, 1):
            handle.write(f'{key} id "s{number}";\n')
    return keys


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
