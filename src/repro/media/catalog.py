"""The movie catalog and its replication map.

The paper assumes "a separate mechanism for replicating the video
material"; the catalog is that mechanism's outcome: which movies exist
and which servers hold a replica of each.  Movies can be added on the
fly ("new movies can be added by storing them on machines where servers
are running").

Replicas come in two flavours.  A **full** replica is the paper's
notion — the server can stream the whole title, and only full replicas
count toward "replicated k times tolerates k-1 failures"
(:meth:`MovieCatalog.replication_degree`).  A **prefix** replica stores
only the first ``prefix_s`` seconds (edge/proxy caching, see
``repro.placement``): the server can admit a viewer instantly but must
hand the session off to a full replica before the playhead leaves the
prefix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.errors import UnknownMovieError
from repro.media.movie import Movie


class MovieCatalog:
    """Movies plus the replica placement map (server name -> movies)."""

    def __init__(self, movies: Optional[Iterable[Movie]] = None) -> None:
        self._movies: Dict[str, Movie] = {}
        self._replicas: Dict[str, Set[str]] = {}
        # (title, server) -> stored prefix seconds; absent = full copy.
        self._prefixes: Dict[str, Dict[str, float]] = {}
        for movie in movies or ():
            self.add_movie(movie)

    # ------------------------------------------------------------------
    # Movies
    # ------------------------------------------------------------------
    def add_movie(self, movie: Movie) -> None:
        self._movies[movie.title] = movie
        self._replicas.setdefault(movie.title, set())

    def movie(self, title: str) -> Movie:
        movie = self._movies.get(title)
        if movie is None:
            raise UnknownMovieError(f"no movie titled {title!r} in the catalog")
        return movie

    def titles(self) -> List[str]:
        return sorted(self._movies)

    def __contains__(self, title: str) -> bool:
        return title in self._movies

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def place_replica(
        self, title: str, server_name: str, prefix_s: Optional[float] = None
    ) -> None:
        """Record that ``server_name`` stores a copy of ``title``.

        ``prefix_s`` limits the copy to the first ``prefix_s`` seconds;
        placing with ``prefix_s=None`` (the default) stores — or
        upgrades to — a full copy.
        """
        if title not in self._movies:
            raise UnknownMovieError(f"cannot replicate unknown movie {title!r}")
        self._replicas[title].add(server_name)
        if prefix_s is None:
            self._prefixes.get(title, {}).pop(server_name, None)
        else:
            self._prefixes.setdefault(title, {})[server_name] = prefix_s

    def remove_replica(self, title: str, server_name: str) -> None:
        self._replicas.get(title, set()).discard(server_name)
        self._prefixes.get(title, {}).pop(server_name, None)

    def replicas(self, title: str) -> Set[str]:
        """All holders of ``title``, full and prefix alike."""
        if title not in self._movies:
            raise UnknownMovieError(f"no movie titled {title!r} in the catalog")
        return set(self._replicas[title])

    def full_replicas(self, title: str) -> Set[str]:
        """Holders that can stream ``title`` end to end."""
        prefixed = self._prefixes.get(title, {})
        return {
            server for server in self.replicas(title) if server not in prefixed
        }

    def prefix_of(self, title: str, server_name: str) -> Optional[float]:
        """Stored prefix seconds at ``server_name``; None = full copy."""
        return self._prefixes.get(title, {}).get(server_name)

    def prefixed_replicas(self, title: str) -> Dict[str, float]:
        """server name -> stored prefix seconds, for prefix holders only."""
        return dict(self._prefixes.get(title, {}))

    def prefix_frames(self, title: str, server_name: str) -> Optional[int]:
        """The prefix boundary as a frame index (None = full copy)."""
        prefix_s = self.prefix_of(title, server_name)
        if prefix_s is None:
            return None
        movie = self.movie(title)
        return min(len(movie.frames), int(prefix_s * movie.fps))

    def movies_of(self, server_name: str) -> List[str]:
        """Titles replicated at ``server_name`` (sorted; any flavour)."""
        return sorted(
            title
            for title, holders in self._replicas.items()
            if server_name in holders
        )

    def replication_degree(self, title: str) -> int:
        """k, as in "replicated k times tolerates k-1 failures".

        Counts only full replicas: a prefix copy cannot carry a session
        to the end of the movie, so it contributes nothing to the
        paper's fault-tolerance contract.
        """
        return len(self.full_replicas(title))
